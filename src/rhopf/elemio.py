"""Text form of algebra elements (used by the normal-order subcommand and
by failure residuals in reports).

Grammar, read from the tokens of the field grammar (``expr``), so
whitespace is insignificant between tokens:

    element  := term (('+' | '-') term)*
    term     := ['{' field-expr '}' '*'] factors
    factors  := factor+ on at most 3 tensor legs separated by '(x)'
    factor   := KIND '[' int [',' int] ']' '(' arg ')'
              | 'delta' '(' zvar '/' zvar ['*' shift] ')'
              | '1'
    arg      := zvar ['*' shift]
    shift    := 'q[' int ',' int ',' int ',' int ']'

field-expr is parsed in place by the field grammar's sum rule.  KIND is
one of Phi, PhiStar, L, LStar, LInv, LStarInv: the kind constants of
``algebra``, which reports print as they are.  The vector kinds Phi and
PhiStar take one index, the matrix kinds two.  int is an optionally
negative integer.  zvar is a spectral variable name (z1..z9, x, w).  A
shift is the text of a q-power monomial: q[h0,h1,h2,h3] is s^h0 u1^h1
u2^h2 u3^h3 = q^(h0/2 + h1/2 c1 + h2/2 c2 + h3/2 c3), the doubled
coefficients of (1, c1, c2, c3) in the q-exponent.
"""

from __future__ import annotations

import functools

from .algebra import (ALL_KINDS, MAX_LEGS, ArgShift, Element, GenOcc,
                      VECTOR_KINDS, make_delta)
from .expr import _parse_sum, _Tokenizer, format_ratexpr
from .symfield import (S, SPECTRAL, U, VAR_INDEX, VARS, _R1, mono, mono_items,
                       q_power, run_memo)


@run_memo
@functools.cache
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
    return f"{kind}[{idx}]({_fmt_arg(var, h)})"


def format_element(e: Element) -> str:
    if e.is_zero():
        return "0"
    out = ""
    for (flag, deltas, legs), coeff in sorted(
            (_text_key(key), c) for key, c in e.terms.items()):
        factors = [f"delta({VARS[a]}/{_fmt_arg(b, h)})"
                   for a, b, h in deltas]
        factors.append(" (x) ".join(
            " ".join(_fmt_occ(*g) for g in word) or "1" for word in legs))
        body = " ".join(factors)
        joiner = " + " if out else ""
        if coeff == -1:
            joiner = " - " if out else "-"
        elif coeff != 1:
            body = f"{{{format_ratexpr(coeff)}}} * {body}"
        out += joiner + body
    if any(flag for (flag, _, _) in e.terms):
        flags = sorted({flag for (flag, _, _) in e.terms if flag})
        out += "   [flags: " + ", ".join(flags) + "]"
    return out


def parse_element(text: str, n: int = None) -> Element:
    """Parse the element grammar; every term has the leg count of the
    first.  With ``n``, every generator index must lie in 1..n."""
    tz = _Tokenizer(text, (1, 1))
    sign = -1 if tz.eat("-") else 1
    if tz.text[tz.peek()[2]:].strip() == "0":
        return Element(1)
    out = None
    while True:
        first = tz.peek()
        coeff, deltas, legs = _term(tz, n)
        if out is not None and len(legs) != out.nlegs:
            tz.error(f"expected {out.nlegs} tensor legs", first)
        term = Element(len(legs), {("", deltas, legs): coeff * sign}
                       if not coeff.is_zero() else {})
        out = term if out is None else out + term
        if tz.eat("+"):
            sign = 1
        elif tz.eat("-"):
            sign = -1
        else:
            break
    if tz.peek()[0] != "end":
        tz.error("trailing input")
    return out


def _ahead(tz: _Tokenizer, *values) -> bool:
    """Whether the next tokens are ``values``."""
    ahead = tz.tokens[tz.idx:tz.idx + len(values)]
    return tuple(tok[1] for tok in ahead) == values


def _int(tz: _Tokenizer) -> int:
    tok = tz.peek()
    neg = tz.eat("-")
    kind, val, _ = tz.next()
    if kind != "int":
        tz.error("expected integer", tok)
    return -val if neg else val


def _index(tz: _Tokenizer, n: int) -> int:
    tok = tz.peek()
    i = _int(tz)
    if n is not None and not 1 <= i <= n:
        tz.error(f"generator index {i} out of range 1..{n}", tok)
    return i


def _shift(tz: _Tokenizer) -> int:
    if not _ahead(tz, "*", "q", "["):
        return mono()
    tz.idx += 3
    h = [_int(tz)]
    for _ in range(3):
        tz.expect(",")
        h.append(_int(tz))
    tz.expect("]")
    return q_power(*h)


def _zvar(tz: _Tokenizer) -> int:
    var = VAR_INDEX.get(tz.peek()[1])
    if var not in SPECTRAL:
        tz.error("expected a spectral variable (z1..z9, x, w)")
    tz.next()
    return var


def _arg(tz: _Tokenizer) -> ArgShift:
    """The grammar's arg and the ')' that closes it."""
    var = _zvar(tz)
    q = _shift(tz)
    tz.expect(")")
    return ArgShift(var, q)


def _term(tz: _Tokenizer, n: int):
    coeff = _R1
    if tz.eat("{"):
        coeff = _parse_sum(tz)
        tz.expect("}")
        tz.expect("*")
    deltas = []
    legs = [[]]
    saw_unit = False
    while True:
        kind, val, pos = tz.peek()
        if _ahead(tz, "(", "x", ")"):
            if len(legs) == MAX_LEGS:
                tz.error(f"at most {MAX_LEGS} tensor legs")
            tz.idx += 3
            legs.append([])
        elif kind == "int" and tz.text[pos] == "1" and not str(val).strip("1"):
            # the unit '1'; a run of them, like 11, multiplies units
            tz.next()
            saw_unit = True
        elif val == "delta":
            tz.next()
            tz.expect("(")
            a = _zvar(tz)
            tz.expect("/")
            b = _arg(tz)
            deltas.append(make_delta(ArgShift(a, b.q), ArgShift(b.var),
                                     mono()))
        elif val in ALL_KINDS:
            tz.next()
            tz.expect("[")
            row = _index(tz, n)
            vector = val in VECTOR_KINDS
            two = tz.eat(",")
            if two == vector:
                tz.error(f"{val} takes "
                         + ("one index" if vector else "two indices"))
            col = _index(tz, n) if two else 0
            tz.expect("]")
            tz.expect("(")
            legs[-1].append(GenOcc(val, row, col, _arg(tz)))
        elif kind == "ident" and _ahead(tz, val, "["):
            tz.error(f"unknown generator kind {val!r}")
        else:
            break
    if not deltas and not any(legs) and not saw_unit and coeff == _R1:
        tz.error("empty term")
    return coeff, tuple(sorted(deltas)), tuple(tuple(w) for w in legs)
