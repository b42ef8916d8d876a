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


def _diagonal_example(n: int, name: str) -> RMatrix:
    main = parse_expr(_F_MAIN)
    near = parse_expr(_F_NEAR)
    one = parse_expr("1")
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                entries[(i, j, i, j)] = main
            elif abs(i - j) == 1:
                entries[(i, j, i, j)] = near
            else:
                entries[(i, j, i, j)] = one
    return RMatrix(n, "x", entries, name=name)


def get_instance(name: str) -> RMatrix:
    if name == "example1":
        return RMatrix(1, "x", {(1, 1, 1, 1): parse_expr(_F_MAIN)},
                       name=name)
    if name == "example2-n2":
        return _diagonal_example(2, name)
    if name == "example2-n3":
        return _diagonal_example(3, name)
    if name == "identity":
        one = parse_expr("1")
        entries = {(i, j, i, j): one for i in range(1, 3)
                   for j in range(1, 3)}
        return RMatrix(2, "x", entries, name=name)
    if name == "broken-nonunitary":
        return RMatrix(1, "x", {(1, 1, 1, 1): parse_expr("x + 1")},
                       name=name)
    raise KeyError(f"unknown instance {name!r}")


INSTANCE_NAMES = ("example1", "example2-n2", "example2-n3", "identity",
                  "broken-nonunitary")


def instance_flags(name: str) -> list:
    """Convention notes surfaced in reports."""
    if name == "example2-n3":
        return ["entries with |i-j| >= 2 filled with 1 (Cartan a_ij = 0 "
                "convention)"]
    return []
