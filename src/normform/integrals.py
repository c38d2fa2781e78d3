"""Slice integrals over exponent polytopes.

The basic object is the (l-1)-dimensional integral of 1/(e_1...e_l) over
the slice sum(e) = s of a product of intervals; l = 1 degenerates to the
point evaluation 1/s.  Quadrature is recursive adaptive with interval
splitting at the points where the inner domain changes shape.  scipy is
imported by the first slice integral with l >= 2, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptySlice


@dataclass(frozen=True)
class PolytopeSpec:
    """Product-of-intervals polytope for l prime-factor exponents.

    intervals[i] is the closed (lo, hi) range of e_(i+1), in units of
    log X.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not (0 < lo <= hi):
                raise ValueError("exponent intervals must satisfy 0 < lo <= hi")

    @property
    def ell(self) -> int:
        return len(self.intervals)

    @classmethod
    def make(cls, intervals) -> "PolytopeSpec":
        return cls(tuple((float(a), float(b)) for a, b in intervals))


# relative tolerance of the outermost quad; each inner level gets 4x looser
REL_TOL = 1e-10


def polytope_integral(spec: PolytopeSpec, target_sum: float) -> float:
    """Integral of 1/(e_1...e_l) over the slice sum(e_i) = target_sum.

    Exactly 1/target_sum for l = 1 when the target lies in the interval;
    0 on an empty slice (callers may catch EmptySlice via strict=True).
    """
    return _slice_integral(list(spec.intervals), float(target_sum), REL_TOL)


def polytope_integral_strict(spec: PolytopeSpec, target_sum: float) -> float:
    val = polytope_integral(spec, target_sum)
    lo = sum(a for a, _ in spec.intervals)
    hi = sum(b for _, b in spec.intervals)
    if not lo <= target_sum <= hi:
        raise EmptySlice(f"target {target_sum} outside [{lo}, {hi}]")
    return val


def _slice_integral(intervals, s: float, rel_tol: float) -> float:
    ell = len(intervals)
    if ell == 0:
        return 0.0
    if ell == 1:
        lo, hi = intervals[0]
        return 1.0 / s if lo <= s <= hi else 0.0
    lo1, hi1 = intervals[0]
    rest = intervals[1:]
    rest_lo = sum(a for a, _ in rest)
    rest_hi = sum(b for _, b in rest)
    a = max(lo1, s - rest_hi)
    b = min(hi1, s - rest_lo)
    if a > b:
        return 0.0
    if abs(a - b) < 1e-15:
        return 0.0
    from scipy.integrate import quad  # slow to import: load it where it runs

    def integrand(e1: float) -> float:
        return _slice_integral(rest, s - e1, rel_tol * 4) / e1

    # split at points where the inner slice geometry changes: whenever
    # s - e1 crosses an endpoint sum of a sub-facet; for products of
    # intervals the kinks are at s - e1 = rest_lo + (b_i - a_i) patterns.
    kinks = set()
    for i, (ai, bi) in enumerate(rest):
        for corner in (rest_lo - ai + bi, rest_hi - bi + ai):
            e1 = s - corner
            if a < e1 < b:
                kinks.add(e1)
    pts = sorted({a, b} | kinks)
    total = 0.0
    for x0, x1 in zip(pts, pts[1:]):
        if x1 - x0 < 1e-15:
            continue
        val, _err = quad(integrand, x0, x1, epsrel=rel_tol, epsabs=0,
                         limit=200)
        total += val
    return total


def closed_form_l2(a: float, b: float, s: float = 1.0) -> float:
    """The l = 2 slice integral with e1 in [a, b], e2 unconstrained.

    Over the slice e1 + e2 = s: integral of de1 / (e1 (s - e1)) on [a, b],
    which is log(e1/(s-e1))/s evaluated at the ends.
    """
    if not 0 < a <= b < s:
        raise ValueError("need 0 < a <= b < s")
    return (math.log(b / (s - b)) - math.log(a / (s - a))) / s
