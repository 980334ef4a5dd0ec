"""Scalar regime helpers.

Everything runs in one of two regimes: binary64 floats with a comparison
tolerance, or exact rationals (``fractions.Fraction``) with tolerance zero.
Operations never mix regimes on their own; the grid fixes the regime, and
its numbers live on it: ``Grid.zero``, ``Grid.one`` and ``Grid.half`` are
``Fraction``s on exact grids and floats on float ones, so no caller spells
out a regime choice.  These helpers keep the other decisions in one place.

The solver adds through one primitive, ``fold``: a left fold in the terms'
order, so a float sum is the same bits on every supported Python (the
builtin ``sum`` compensates float sums from CPython 3.12 on).  The oracle
keeps its own summation, which ``verify``'s independence rests on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Union

#: user-facing comparison tolerance in the float regime
DEFAULT_TOL = 1e-9

#: rank / kernel / ratio-test threshold inside the pivoting kernels (float regime)
PIVOT_TOL = 1e-12

Scalar = Union[int, float, Fraction]


def is_exact(x: Scalar) -> bool:
    """True for scalars that support exact arithmetic (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(is_exact(v) for v in values)


def resolve_tol(exact: bool, tol: Scalar | None) -> Scalar:
    """Effective comparison tolerance: caller override, else regime default."""
    if tol is not None:
        return tol
    return Fraction(0) if exact else DEFAULT_TOL


def check_finite(x: Scalar, what: str) -> Scalar:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{what}: non-finite value {x!r}")
    return x


def fold(terms: Iterable[Scalar], start: Scalar = 0) -> Scalar:
    """``start`` plus the terms, added left to right, one rounding per
    addition on floats: what the builtin ``sum`` computes on Python 3.10 and
    3.11, and the same bits on every version, since it never compensates."""
    return reduce(add, terms, start)


def max_abs(values: Iterable[Scalar]) -> Scalar:
    m = 0
    for v in values:
        a = -v if v < 0 else v
        if a > m:
            m = a
    return m
