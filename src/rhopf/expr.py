"""Text grammar for coefficient-field expressions.

Accepted: integers, identifiers q, s, u1..u3, x, z1..z9, w, the operators
+ - * / ^ (integer exponents), and parentheses; whitespace is
insignificant.  s stands for q^(1/2) (internally q = s^2); u_t stands for
q^(c_t/2).  The printer emits text that re-parses to an equal RatExpr.
"""

from __future__ import annotations

import functools
import re

from .errors import ParseError
from .symfield import _ONE_TERMS, RatExpr, S, VARS, mono_items, run_memo

_IDENTS = set(VARS) | {"q"}

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

# the deepest nesting of parentheses and unary minus signs a parse takes;
# a parenthesis costs the parser five stack frames
MAX_DEPTH = 100


def locate(text: str, pos: int, origin: tuple) -> tuple:
    """Line and column of text[pos], given the (line, column) ``origin``
    of text[0] in the enclosing text."""
    line, col = origin
    nl = text.rfind("\n", 0, pos)
    if nl < 0:
        return line, col + pos
    return line + text.count("\n", 0, pos), pos - nl


class _Tokenizer:
    def __init__(self, text: str, origin: tuple):
        self.text = text
        self.origin = origin
        self.tokens = []
        self._scan()
        self.idx = 0
        self.depth = 0

    def _scan(self):
        pos = 0
        n = len(self.text)
        while pos < n:
            m = _TOKEN_RE.match(self.text, pos)
            if not m:
                break
            start = m.start(1) if m.group(1) else (
                m.start(2) if m.group(2) else m.start(3))
            if m.group(1):
                self.tokens.append(("int", int(m.group(1)), start))
            elif m.group(2):
                self.tokens.append(("ident", m.group(2), start))
            else:
                ch = m.group(3)
                if ch.strip():
                    self.tokens.append((ch, ch, start))
            pos = m.end()
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def eat(self, text: str) -> bool:
        """Take the next token if it is the punctuation character or
        identifier ``text``."""
        if self.peek()[1] == text:
            self.idx += 1
            return True
        return False

    def expect(self, text: str, message: str = None):
        if not self.eat(text):
            self.error(message or f"expected {text!r}")

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, *locate(self.text, tok[2], self.origin))

    def nest(self, step: int):
        """Enter (step 1) or leave (step -1) a parenthesis or unary minus;
        the parser recurses once per level, so nesting is bounded."""
        self.depth += step
        if self.depth > MAX_DEPTH:
            self.error("expression nested too deeply")


def _parse_exponent(tz: _Tokenizer) -> int:
    parens = tz.eat("(")
    neg = tz.eat("-")
    kind, val, _ = tz.peek()
    if kind != "int":
        tz.error("expected integer exponent")
    tz.next()
    if parens:
        tz.expect(")", "expected ')' after exponent")
    return -val if neg else val


def _parse_atom(tz: _Tokenizer) -> RatExpr:
    kind, val, _ = tz.peek()
    if kind == "int":
        tz.next()
        return RatExpr.from_int(val)
    if kind == "ident":
        if val not in _IDENTS:
            tz.error(f"unknown identifier {val!r}")
        tz.next()
        if val == "q":
            return RatExpr.var("s", 2)
        return RatExpr.var(val)
    if kind == "(":
        tz.nest(1)
        tz.next()
        out = _parse_sum(tz)
        tz.expect(")")
        tz.nest(-1)
        return out
    tz.error("expected integer, identifier or '('")


def _parse_factor(tz: _Tokenizer) -> RatExpr:
    base = _parse_atom(tz)
    if tz.eat("^"):
        return base ** _parse_exponent(tz)
    return base


def _parse_unary(tz: _Tokenizer) -> RatExpr:
    if tz.peek()[0] == "-":
        tz.nest(1)
        tz.next()
        out = -_parse_unary(tz)
        tz.nest(-1)
        return out
    return _parse_factor(tz)


def _parse_term(tz: _Tokenizer) -> RatExpr:
    out = _parse_unary(tz)
    while tz.peek()[0] in ("*", "/"):
        op = tz.next()[0]
        rhs = _parse_unary(tz)
        out = out * rhs if op == "*" else out / rhs
    return out


def _parse_sum(tz: _Tokenizer) -> RatExpr:
    out = _parse_term(tz)
    while tz.peek()[0] in ("+", "-"):
        op = tz.next()[0]
        rhs = _parse_term(tz)
        out = out + rhs if op == "+" else out - rhs
    return out


def parse_expr(text: str, origin: tuple = (1, 1)) -> RatExpr:
    """Parse ``text``; ``origin`` is the (line, column) of its first
    character in the enclosing text, so errors point into that text."""
    tz = _Tokenizer(text, origin)
    out = _parse_sum(tz)
    if tz.peek()[0] != "end":
        tz.error("trailing input")
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_var(v: int, e: int) -> str:
    if v == S:
        if e % 2 == 0:
            k = e // 2
            return "q" if k == 1 else f"q^{k}"
        return "s" if e == 1 else f"s^{e}"
    name = VARS[v]
    return name if e == 1 else f"{name}^{e}"


@run_memo
@functools.cache
def _mono_text(m: int) -> str:
    """The factors of a monomial joined by '*', empty for the unit.  A
    residual prints the same few monomials many times."""
    return "*".join(_format_var(v, e) for v, e in mono_items(m))


def _format_poly(terms: dict) -> str:
    if not terms:
        return "0"
    bits = []
    for m in sorted(terms, reverse=True):
        c = terms[m]
        text = _mono_text(m)
        if not text:
            body = str(abs(c))
        elif abs(c) == 1:
            body = text
        else:
            body = f"{abs(c)}*{text}"
        bits.append(("-" if c < 0 else "+", body))
    sign, body = bits[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in bits[1:]:
        out += f" {sign} {body}"
    return out


# the text of each coefficient by its serial number (``RatExpr.key``): a
# residual prints few distinct coefficients many times
_TEXTS: dict = run_memo({})


def format_ratexpr(a: RatExpr) -> str:
    text = _TEXTS.get(a.key)
    if text is None:
        text = _TEXTS[a.key] = _fraction_text(a)
    return text


def _fraction_text(a: RatExpr) -> str:
    num = _format_poly(a.num)
    if a.den == _ONE_TERMS:
        if len(a.num) > 1:
            return f"({num})"
        return num
    return f"({num})/({_format_poly(a.den)})"
