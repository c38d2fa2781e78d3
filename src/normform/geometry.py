"""Geometry of numbers: boxes, linear regions and exact lattice point counts.

points_in_region counts lattice points exactly: the Fincke-Pohst walk
inside the region's bounding ball yields leaf intervals of points on a
line, each clipped against the box and the constraints by exact integer
division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, RankTooLarge, ValidationError
from .intlinalg import _dot, _leaf_intervals, gram_det, lll_reduce
from .lattices import IntLattice


@dataclass(frozen=True)
class AxisBox:
    """Product of closed intervals with rational endpoints."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValidationError("lo/hi length mismatch")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValidationError("interval with lo > hi")

    @classmethod
    def make(cls, lo, hi) -> "AxisBox":
        return cls(tuple(Fraction(x) for x in lo), tuple(Fraction(x) for x in hi))

    @classmethod
    def cube(cls, dim: int, lo, hi) -> "AxisBox":
        return cls.make([lo] * dim, [hi] * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        return all(a <= t <= b for a, t, b in zip(self.lo, x, self.hi))

    def radius_sq(self) -> Fraction:
        """Squared radius of the smallest origin-centred ball covering the box."""
        return sum(max(a * a, b * b) for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class LinearRegion:
    """Bounded region: an axis box plus linear-functional constraints.

    Each constraint is (integer functional a, rational interval [lo, hi])
    meaning lo <= a.x <= hi.  The box certifies boundedness, so a region
    without one is refused.
    """

    box: AxisBox
    constraints: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...] = field(
        default=()
    )

    def __post_init__(self):
        if not isinstance(self.box, AxisBox):
            raise ValidationError("region needs an axis box to certify boundedness")

    @classmethod
    def from_box(cls, box: AxisBox) -> "LinearRegion":
        return cls(box=box)

    @classmethod
    def make(cls, box: AxisBox, constraints=()) -> "LinearRegion":
        cons = tuple((tuple(int(c) for c in a), Fraction(lo), Fraction(hi))
                     for a, lo, hi in constraints)
        return cls(box=box, constraints=cons)

    def contains(self, x) -> bool:
        if not self.box.contains(x):
            return False
        for a, lo, hi in self.constraints:
            v = sum(c * t for c, t in zip(a, x))
            if not lo <= v <= hi:
                return False
        return True


def points_in_region(lat: IntLattice, region: LinearRegion,
                     budget: int = 10**8) -> int:
    """Exact number of lattice points in the region.

    Walks the Fincke-Pohst tree of the LLL-reduced basis inside the
    region's bounding ball; each leaf, the points v + t*b0 for t in an
    interval, is clipped for +-(v + t*b0) by every box coordinate and
    constraint in exact integer division, so no point is built.  The ball
    count estimate and the tree's coefficient choices are guarded by
    `budget`.  A box or constraint functional of another length than
    lat.ambient_dim raises ValidationError.
    """
    n = lat.ambient_dim
    if region.box.dim != n or any(len(a) != n for a, _, _ in region.constraints):
        raise ValidationError(
            f"region dimension differs from the lattice's ambient dimension {n}")
    if lat.rank > 10:
        raise RankTooLarge(f"rank {lat.rank} > 10")
    r2 = region.box.radius_sq()
    red = lll_reduce([list(b) for b in lat.basis])
    # crude count estimate: vol ball / det
    det_sq = gram_det(red)
    est = (float(r2) ** (lat.rank / 2) * _ball_volume(lat.rank)) / math.sqrt(det_sq)
    if est > budget:
        raise BudgetExceeded(f"estimated enumeration {est:.3g} > budget {budget}")
    # one row per box coordinate, then per constraint functional; integer
    # points only: lo <= t <= hi  <=>  ceil(lo) <= t <= floor(hi)
    funcs = [a for a, _, _ in region.constraints]
    bounds = [(math.ceil(lo), math.floor(hi)) for lo, hi in
              [*zip(region.box.lo, region.box.hi), *(c[1:] for c in region.constraints)]]
    b0 = red[0] if red else []
    steps = b0 + [_dot(a, b0) for a in funcs]
    count = int(region.contains(tuple([0] * n)))
    for _, partial, start, stop in _leaf_intervals(red, r2, budget):
        vals = partial + [_dot(a, partial) for a in funcs]
        pos = neg = (start, stop)
        for p, s, (lo, hi) in zip(vals, steps, bounds):
            pos = _clip(*pos, p, s, lo, hi)
            neg = _clip(*neg, -p, -s, lo, hi)
        count += max(0, pos[1] - pos[0]) + max(0, neg[1] - neg[0])
    return count


def _clip(a: int, b: int, p: int, s: int, lo: int, hi: int) -> tuple[int, int]:
    """[a, b) cut down to the t with lo <= p + t*s <= hi."""
    if s == 0:
        return (a, b) if lo <= p <= hi else (a, a)
    if s < 0:
        p, s, lo, hi = -p, -s, -hi, -lo
    return max(a, -((p - lo) // s)), min(b, (hi - p) // s + 1)


def _ball_volume(r: int) -> float:
    return math.pi ** (r / 2) / math.gamma(r / 2 + 1)
