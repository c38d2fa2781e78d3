"""Geometry of numbers: boxes, linear regions, exact counts and volumes.

points_in_region counts lattice points exactly: the Fincke-Pohst walk
inside the region's bounding ball yields leaf intervals of points on a
line, each clipped against the box and the constraints by exact integer
division.  davenport_estimate returns the volume/determinant main term
together with the error expression built from exact successive minima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox

from .errors import BudgetExceeded, RankTooLarge, Unbounded, ValidationError
from .intlinalg import (
    _dot,
    _leaf_intervals,
    gram_det,
    lll_reduce,
    solve_rational,
    successive_minima,
)
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

    def volume(self) -> Fraction:
        return math.prod((b - a for a, b in zip(self.lo, self.hi)), start=Fraction(1))

    def contains(self, x) -> bool:
        return all(a <= t <= b for a, t, b in zip(self.lo, x, self.hi))

    def radius_sq(self) -> Fraction:
        """Squared radius of the smallest origin-centred ball covering the box."""
        return sum(max(a * a, b * b) for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class LinearRegion:
    """Bounded region: optional axis box plus linear-functional constraints.

    Each constraint is (integer functional a, rational interval [lo, hi])
    meaning lo <= a.x <= hi.  Boundedness must be certified by the box; a
    region without a box is rejected.
    """

    box: AxisBox | None
    constraints: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...] = field(
        default=()
    )

    @classmethod
    def from_box(cls, box: AxisBox) -> "LinearRegion":
        return cls(box=box)

    @classmethod
    def make(cls, box: AxisBox | None, constraints=()) -> "LinearRegion":
        cons = tuple((tuple(int(c) for c in a), Fraction(lo), Fraction(hi))
                     for a, lo, hi in constraints)
        return cls(box=box, constraints=cons)

    @property
    def dim(self) -> int:
        if self.box is not None:
            return self.box.dim
        return len(self.constraints[0][0])

    def require_bounded(self):
        if self.box is None:
            raise Unbounded("region needs an axis box to certify boundedness")

    def contains(self, x) -> bool:
        if self.box is not None and not self.box.contains(x):
            return False
        for a, lo, hi in self.constraints:
            v = sum(c * t for c, t in zip(a, x))
            if not lo <= v <= hi:
                return False
        return True

    def halfspaces(self):
        """All constraints as (functional, offset) pairs meaning a.x <= b."""
        out = []
        d = self.dim
        if self.box is not None:
            for i in range(d):
                e = [0] * d
                e[i] = 1
                out.append((tuple(e), self.box.hi[i]))
                out.append((tuple(-x for x in e), -self.box.lo[i]))
        for a, lo, hi in self.constraints:
            out.append((a, hi))
            out.append((tuple(-c for c in a), -lo))
        return out


def points_in_region(lat: IntLattice, region: LinearRegion,
                     budget: int = 10**8) -> int:
    """Exact number of lattice points in the region.

    Walks the Fincke-Pohst tree of the LLL-reduced basis inside the
    region's bounding ball; each leaf, the points v + t*b0 for t in an
    interval, is clipped for +-(v + t*b0) by every box coordinate and
    constraint in exact integer division, so no point is built.  The ball count estimate
    and the tree's coefficient choices are guarded by `budget`.
    """
    region.require_bounded()
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
    count = int(region.contains(tuple([0] * lat.ambient_dim)))
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


def region_volume(region: LinearRegion, rank: int | None = None,
                  mc_samples: int = 200_000, seed: int = 0):
    """Volume of the region: exact (rational) for dim <= 4, else seeded MC.

    Returns (volume, standard_error); the error is 0 for the exact path.
    """
    region.require_bounded()
    d = region.dim
    if not region.constraints:
        return region.box.volume(), Fraction(0)
    if d <= 4:
        return polytope_volume_exact(region), Fraction(0)
    return _volume_monte_carlo(region, mc_samples, seed)


def _volume_monte_carlo(region: LinearRegion, samples: int, seed: int):
    box = region.box
    d = box.dim
    rng = Generator(Philox(key=seed))
    lo = np.array([float(x) for x in box.lo])
    hi = np.array([float(x) for x in box.hi])
    pts = rng.random((samples, d)) * (hi - lo) + lo
    mask = np.ones(samples, dtype=bool)
    for a, clo, chi in region.constraints:
        vals = pts @ np.array([float(c) for c in a])
        mask &= (vals >= float(clo)) & (vals <= float(chi))
    frac = mask.mean()
    volbox = float(box.volume())
    se = volbox * math.sqrt(max(frac * (1 - frac), 1e-12) / samples)
    return volbox * frac, se


def polytope_volume_exact(region: LinearRegion) -> Fraction:
    """Exact rational volume of a bounded polytope of dimension <= 4.

    Sweep method: the volume of the slice at x_d = t is piecewise
    polynomial in t of degree < d between breakpoints, and every
    breakpoint is the last coordinate of some vertex.  Within each
    breakpoint interval the slice volume is interpolated exactly from d
    sample evaluations (recursing on dimension).
    """
    halves = region.halfspaces()
    d = region.dim
    return _volume_sweep(halves, d)


def _volume_sweep(halves, d: int) -> Fraction:
    if d == 0:
        return Fraction(1)
    if d == 1:
        lo, hi = _interval_from_halfspaces(halves)
        if lo is None or hi <= lo:
            return Fraction(0)
        return hi - lo
    verts = _polytope_vertices(halves, d)
    if not verts:
        return Fraction(0)
    breaks = sorted({v[d - 1] for v in verts})
    total = Fraction(0)
    for a, b in zip(breaks, breaks[1:]):
        if b <= a:
            continue
        # slice volume is a polynomial of degree <= d-1 on [a, b]:
        # interpolate from d interior nodes
        nodes = [a + (b - a) * Fraction(i + 1, d + 1) for i in range(d)]
        vals = [_volume_sweep(_fix_last(halves, t, d), d - 1) for t in nodes]
        total += _integrate_interpolant(nodes, vals, a, b)
    return total


def _interval_from_halfspaces(halves):
    lo, hi = None, None
    for a, b in halves:
        c = a[0]
        if c > 0:
            v = Fraction(b, c)
            hi = v if hi is None else min(hi, v)
        elif c < 0:
            v = Fraction(b, c)
            lo = v if lo is None else max(lo, v)
        elif b < 0:
            return None, None
    if lo is None or hi is None:
        raise Unbounded("1-d slice unbounded")
    return lo, hi


def _fix_last(halves, t: Fraction, d: int):
    """Substitute x_d = t into each halfspace, dropping that coordinate."""
    out = []
    for a, b in halves:
        head = a[: d - 1]
        out.append((head, b - a[d - 1] * t))
    return out


def _polytope_vertices(halves, d: int):
    verts = set()
    idx = range(len(halves))
    for combo in itertools.combinations(idx, d):
        rows = [list(halves[i][0]) for i in combo]
        rhs = [halves[i][1] for i in combo]
        x = solve_rational(rows, rhs)
        if x is None:
            continue
        if all(sum(Fraction(c) * xi for c, xi in zip(a, x)) <= b + 0
               for a, b in halves):
            verts.add(tuple(x))
    return list(verts)


def _integrate_interpolant(nodes, vals, a: Fraction, b: Fraction) -> Fraction:
    """Integral over [a,b] of the Lagrange interpolant through (nodes, vals)."""
    # coefficients of the interpolating polynomial, exact
    d = len(nodes)
    coeffs = [Fraction(0)] * d
    for i in range(d):
        # Lagrange basis polynomial L_i
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(d):
            if j == i:
                continue
            num = _poly_mul(num, [-nodes[j], Fraction(1)])
            den *= nodes[i] - nodes[j]
        for t, c in enumerate(num):
            coeffs[t] += vals[i] * c / den
    total = Fraction(0)
    for t, c in enumerate(coeffs):
        total += c * (b ** (t + 1) - a ** (t + 1)) / (t + 1)
    return total


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@dataclass
class DavenportEstimate:
    main_term: float
    volume: float
    volume_se: float
    det: float
    error_bound: float
    minima_sq: tuple[int, ...]


def davenport_estimate(lat: IntLattice, region: LinearRegion,
                       mc_samples: int = 200_000, seed: int = 0) -> DavenportEstimate:
    """Main term vol(R)/det(Lambda) and the explicit error expression.

    The error bound is 1 + sum_{j<r} B^j / prod_{i<=j} Z_i with B the
    bounding-ball radius and Z_i the exact successive minima; the implied
    constant is reported as 1 and fitted by callers.
    """
    region.require_bounded()
    vol, se = region_volume(region, mc_samples=mc_samples, seed=seed)
    minima, _ = successive_minima([list(b) for b in lat.basis])
    det = math.sqrt(gram_det([list(b) for b in lat.basis]))
    B = math.sqrt(float(region.box.radius_sq()))
    err = 1.0
    prod = 1.0
    for j in range(1, lat.rank):
        prod *= math.sqrt(minima[j - 1])
        err += B**j / prod
    return DavenportEstimate(
        main_term=float(vol) / det,
        volume=float(vol),
        volume_se=float(se),
        det=det,
        error_bound=err,
        minima_sq=tuple(minima),
    )
