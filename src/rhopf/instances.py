"""Built-in R-matrix instances addressable by name.

``example1``          scalar (x - q^2)/(x*q^2 - 1)
``example2-n2``       diagonal n=2, nearest-neighbour pattern
``example2-n3``       diagonal n=3 (entries for |i-j| >= 2 set to 1; this
                      filler convention is flagged in reports)
``identity``          2x2 identity
``broken-nonunitary`` scalar x + 1, deliberately violating unitarity
"""

from __future__ import annotations

from .expr import parse_expr
from .rmatrix import RMatrix

_F_MAIN = "(x - q^2)/(x*q^2 - 1)"
_F_NEAR = "(x - q^-1)/(x*q^-1 - 1)"


def _scalar(entry: str, name: str) -> RMatrix:
    return RMatrix(1, "x", {(1, 1, 1, 1): parse_expr(entry)}, name=name)


def _diagonal(n: int, name: str) -> RMatrix:
    main, near, one = map(parse_expr, (_F_MAIN, _F_NEAR, "1"))
    entries = {(i, j, i, j): main if i == j else near if abs(i - j) == 1
               else one for i in range(1, n + 1) for j in range(1, n + 1)}
    return RMatrix(n, "x", entries, name=name)


def _identity(name: str) -> RMatrix:
    one = parse_expr("1")
    return RMatrix(2, "x", {(i, j, i, j): one for i in (1, 2)
                            for j in (1, 2)}, name=name)


# every instance by name: its builder, which takes the name, and the
# convention notes surfaced in its reports
INSTANCES = {
    "example1": (lambda name: _scalar(_F_MAIN, name), ()),
    "example2-n2": (lambda name: _diagonal(2, name), ()),
    "example2-n3": (lambda name: _diagonal(3, name), (
        "entries with |i-j| >= 2 filled with 1 (Cartan a_ij = 0 "
        "convention)",)),
    "identity": (_identity, ()),
    "broken-nonunitary": (lambda name: _scalar("x + 1", name), ()),
}


def get_instance(name: str) -> RMatrix:
    if name not in INSTANCES:
        raise KeyError(f"unknown instance {name!r}")
    return INSTANCES[name][0](name)
