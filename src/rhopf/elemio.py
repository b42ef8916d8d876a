"""Text form of algebra elements (used by the normal-order subcommand and
by failure residuals in reports).

Grammar (whitespace insignificant between tokens):

    element  := term (('+' | '-') term)*
    term     := ['{' field-expr '}' '*'] factors
    factors  := factor+ on at most 3 tensor legs separated by '(x)'
    factor   := KIND '[' int [',' int] ']' '(' arg ')'
              | 'delta' '(' zvar '/' zvar ['*' shift] ')'
              | '1'
    arg      := zvar ['*' shift]
    shift    := 'q[' int ',' int ',' int ',' int ']'

KIND is one of Phi, PhiStar, L, LStar, LInv, LStarInv; the vector kinds
Phi and PhiStar take one index, the matrix kinds two.  zvar is a spectral
variable name (z1..z9, x, w).  A shift is the text of a q-power monomial:
q[h0,h1,h2,h3] is s^h0 u1^h1 u2^h2 u3^h3 = q^(h0/2 + h1/2 c1 + h2/2 c2 +
h3/2 c3), the doubled coefficients of (1, c1, c2, c3) in the q-exponent.
"""

from __future__ import annotations

import re

from .algebra import (MAX_LEGS, ArgShift, Element, GenOcc, L, LINV, LSTAR,
                      LSTARINV, PHI, PHISTAR, VECTOR_KINDS, make_delta)
from .errors import ParseError
from .expr import format_ratexpr, locate, parse_expr
from .symfield import (S, SPECTRAL, U, RatExpr, VAR_INDEX, VARS, mono,
                       mono_items, q_power)

_KIND_TEXT = {PHI: "Phi", PHISTAR: "PhiStar", L: "L", LSTAR: "LStar",
              LINV: "LInv", LSTARINV: "LStarInv"}
_TEXT_KIND = {v: k for k, v in _KIND_TEXT.items()}

_R1 = RatExpr.from_int(1)


def _doubled(q: int) -> tuple:
    """The text vector (h0, h1, h2, h3) of the q-power s^h0 u1^h1 u2^h2
    u3^h3."""
    exps = dict(mono_items(q))
    return tuple(exps.get(v, 0) for v in (S,) + U)


def _text_key(key) -> tuple:
    """A term key with every q-power as its text vector (h0, h1, h2, h3):
    the order in which terms, and the deltas of a term, are printed.  A
    q-power monomial is one packed int that compares by its most
    significant variable, u3, first; the text vector compares by h0
    first, so the printed order is not the order of the monomials."""
    flag, deltas, legs = key
    return (flag,
            tuple(sorted((d.avar, d.bvar, _doubled(d.q)) for d in deltas)),
            tuple(tuple((g.kind, g.row, g.col, g.arg.var, _doubled(g.arg.q))
                        for g in word) for word in legs))


def _fmt_arg(var: int, h: tuple) -> str:
    return VARS[var] + ("*q[%d,%d,%d,%d]" % h if any(h) else "")


def _fmt_occ(kind, row, col, var, h) -> str:
    idx = f"{row}" if kind in VECTOR_KINDS else f"{row},{col}"
    return f"{_KIND_TEXT[kind]}[{idx}]({_fmt_arg(var, h)})"


def format_element(e: Element) -> str:
    if e.is_zero():
        return "0"
    bits = []
    for (flag, deltas, legs), coeff in sorted(
            (_text_key(key), c) for key, c in e.terms.items()):
        factors = [f"delta({VARS[a]}/{_fmt_arg(b, h)})"
                   for a, b, h in deltas]
        leg_txt = []
        for word in legs:
            leg_txt.append(" ".join(_fmt_occ(*g) for g in word) or "1")
        factors.append(" (x) ".join(leg_txt))
        body = " ".join(factors)
        if coeff == _R1:
            txt = body
        elif coeff == -_R1:
            txt = f"- {body}"
            bits.append(txt)
            continue
        else:
            txt = f"{{{format_ratexpr(coeff)}}} * {body}"
        bits.append(txt)
    out = ""
    for i, txt in enumerate(bits):
        if txt.startswith("- "):
            out += (" - " if i else "-") + txt[2:]
        else:
            out += (" + " if i else "") + txt
    if any(flag for (flag, _, _) in e.terms):
        flags = sorted({flag for (flag, _, _) in e.terms if flag})
        out += "   [flags: " + ", ".join(flags) + "]"
    return out


def parse_element(text: str, nlegs: int = None, n: int = None) -> Element:
    """Parse the element grammar; the leg count is inferred from the first
    term unless given.  With ``n``, every generator index must lie in
    1..n."""
    parser = _ElementParser(text, n)
    return parser.parse(nlegs)


class _ElementParser:
    def __init__(self, text: str, n: int = None):
        self.text = text
        self.pos = 0
        self.n = n

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _error(self, msg):
        raise ParseError(msg, *locate(self.text, self.pos, (1, 1)))

    def _eat(self, lit: str) -> bool:
        self._skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def _expect(self, lit: str):
        if not self._eat(lit):
            self._error(f"expected {lit!r}")

    def _int(self) -> int:
        self._skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            self._error("expected integer")
        self.pos += m.end()
        return int(m.group(0))

    def _index(self) -> int:
        self._skip_ws()
        start = self.pos
        i = self._int()
        if self.n is not None and not 1 <= i <= self.n:
            self.pos = start
            self._error(f"generator index {i} out of range 1..{self.n}")
        return i

    def _ident(self):
        self._skip_ws()
        m = re.match(r"[A-Za-z][A-Za-z0-9]*", self.text[self.pos:])
        if not m:
            return None
        self.pos += m.end()
        return m.group(0)

    def _shift(self) -> int:
        save = self.pos
        if not self._eat("*"):
            return mono()
        if not self._eat("q["):
            self.pos = save
            return mono()
        h = [self._int()]
        for _ in range(3):
            self._expect(",")
            h.append(self._int())
        self._expect("]")
        return q_power(*h)

    def _zvar(self) -> int:
        self._skip_ws()
        start = self.pos
        var = VAR_INDEX.get(self._ident())
        if var not in SPECTRAL:
            self.pos = start
            self._error("expected a spectral variable (z1..z9, x, w)")
        return var

    def _coeff(self) -> RatExpr:
        self._skip_ws()
        if not self._eat("{"):
            return _R1
        depth = 1
        start = self.pos
        while self.pos < len(self.text) and depth:
            ch = self.text[self.pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            self.pos += 1
        if depth:
            self._error("unterminated coefficient")
        coeff = parse_expr(self.text[start:self.pos - 1],
                           locate(self.text, start, (1, 1)))
        self._expect("*")
        return coeff

    def _term(self):
        coeff = self._coeff()
        deltas = []
        legs = [[]]
        saw_unit = False
        while True:
            self._skip_ws()
            if self.text.startswith("(x)", self.pos):
                if len(legs) == MAX_LEGS:
                    self._error(f"at most {MAX_LEGS} tensor legs")
                self.pos += 3
                legs.append([])
                continue
            if (self.pos < len(self.text) and self.text[self.pos] == "1"):
                self.pos += 1
                saw_unit = True
                continue
            save = self.pos
            name = self._ident()
            if name is None:
                break
            if name == "delta":
                self._expect("(")
                a = self._zvar()
                self._expect("/")
                b = self._zvar()
                q = self._shift()
                self._expect(")")
                deltas.append(make_delta(ArgShift(a, q), ArgShift(b), mono()))
                continue
            if name in _TEXT_KIND:
                kind = _TEXT_KIND[name]
                self._expect("[")
                row = self._index()
                vector = kind in VECTOR_KINDS
                two = self._eat(",")
                if two == vector:
                    self._skip_ws()
                    self._error(f"{name} takes "
                                + ("one index" if vector else "two indices"))
                col = self._index() if two else 0
                self._expect("]")
                self._expect("(")
                var = self._zvar()
                q = self._shift()
                self._expect(")")
                legs[-1].append(GenOcc(kind, row, col, ArgShift(var, q)))
                continue
            self.pos = save
            break
        if not deltas and not any(legs) and not saw_unit \
                and coeff == _R1:
            self._error("empty term")
        return coeff, tuple(sorted(deltas)), tuple(tuple(w) for w in legs)

    def parse(self, nlegs=None) -> Element:
        out = None
        sign = 1
        if self._eat("-"):
            sign = -1
        self._skip_ws()
        if self.text[self.pos:].strip() == "0":
            self.pos = len(self.text)
            return Element.zero(nlegs or 1)
        while True:
            coeff, deltas, legs = self._term()
            if nlegs is None:
                nlegs = len(legs)
            if len(legs) != nlegs:
                self._error(f"expected {nlegs} tensor legs")
            term = Element(nlegs, {("", deltas, legs): coeff * sign}
                           if not coeff.is_zero() else {})
            out = term if out is None else out + term
            self._skip_ws()
            if self._eat("+"):
                sign = 1
            elif self._eat("-"):
                sign = -1
            else:
                break
        self._skip_ws()
        if self.pos != len(self.text):
            self._error("trailing input")
        return out if out is not None else Element.zero(nlegs or 1)
