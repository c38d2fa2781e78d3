"""Constraint lattices of the multiplication map and their wedge invariants.

Lambda_v is the set of integer x whose product with v has its last k
coordinates zero; lambda_pair imposes the constraints of two vectors at
once.  The wedge vector collects the maximal minors of the constraint
matrix; its squared length over its squared content equals det(Lambda)^2
exactly, which is the identity the whole Type I/II machinery leans on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePair, RankTooLarge, ZeroVector, ZeroWedge
from .fields import FieldSpec, constraint_rows
from .intlinalg import (
    det_bareiss,
    gram_det,
    kernel_sequential,
    lll_reduce,
    near_orthogonality,
    rank_rational,
    solve_rational,
    successive_minima,
)


@dataclass(frozen=True)
class IntLattice:
    """Full-row-rank integer basis of a sublattice of Z^ambient_dim."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, x) -> bool:
        """Exact membership test: solve B^T c = x over Q, check integrality."""
        cols = [[row[j] for row in self.basis] for j in range(self.ambient_dim)]
        coeffs = solve_rational(cols, x)
        return coeffs is not None and all(c.denominator == 1 for c in coeffs)


@dataclass(frozen=True)
class WedgeVec:
    """Vector of maximal minors of a constraint matrix, colex-indexed.

    subset_size is k (single vector) or 2k (pair); entries[i] is the minor
    on the i-th size-subset_size column set in colexicographic order.
    """

    subset_size: int
    entries: tuple[int, ...]

    @property
    def content(self) -> int:
        """gcd of the entries (0 when the wedge vanishes identically)."""
        return math.gcd(*(abs(e) for e in self.entries)) if self.entries else 0

    @property
    def norm_sq(self) -> int:
        return sum(e * e for e in self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """Size-k subsets of range(n) in colexicographic order."""
    return sorted(itertools.combinations(range(n), k),
                  key=lambda c: tuple(reversed(c)))


def _minor_vector(rows, n: int, k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)  # empty minor: det of the 0x0 matrix
    out = []
    for cols in colex_subsets(n, k):
        sub = [[rows[i][c] for c in cols] for i in range(k)]
        out.append(det_bareiss(sub))
    return tuple(out)


def wedge(v, ctx: FieldSpec) -> WedgeVec:
    """Wedge vector of v: all k x k minors of constraint_rows(v)."""
    rows = constraint_rows(v, ctx)
    return WedgeVec(ctx.k, _minor_vector(rows, ctx.n, ctx.k))


def wedge_pair(v1, v2, ctx: FieldSpec) -> WedgeVec:
    """Wedge vector of the stacked 2k x n constraint matrix of (v1, v2)."""
    rows = constraint_rows(v1, ctx) + constraint_rows(v2, ctx)
    return WedgeVec(2 * ctx.k, _minor_vector(rows, ctx.n, 2 * ctx.k))


def lambda_v(v, ctx: FieldSpec) -> IntLattice:
    """The rank n-k lattice {x in Z^n : (x*v) has last k coordinates 0}.

    Computed by sequential gcd elimination, deliberately a different
    algorithm from kernel_oracle so the two can cross-check each other.
    """
    rows = constraint_rows(v, ctx)
    basis = kernel_sequential(rows, ctx.n)
    return IntLattice(ctx.n, tuple(tuple(b) for b in basis))


def lambda_pair(v1, v2, ctx: FieldSpec) -> IntLattice:
    """Joint constraint lattice of rank n-2k; DegeneratePair if the wedge vanishes."""
    if all(t == 0 for t in v1) or all(t == 0 for t in v2):
        raise ZeroVector("lambda_pair of a zero vector")
    rows = constraint_rows(v1, ctx) + constraint_rows(v2, ctx)
    if rank_rational(rows) < 2 * ctx.k:
        raise DegeneratePair("wedge_pair(v1, v2) = 0: rank exceeds n - 2k")
    basis = kernel_sequential(rows, ctx.n)
    return IntLattice(ctx.n, tuple(tuple(b) for b in basis))


def det_squared_formula(w: WedgeVec) -> Fraction:
    """det(Lambda)^2 from the wedge alone: ||wedge||^2 / content^2."""
    if w.is_zero():
        raise ZeroWedge("wedge vector vanishes")
    d = w.content
    return Fraction(w.norm_sq, d * d)


def lattice_det_sq(lat: IntLattice) -> int:
    """det(Lambda)^2 = det(B B^T), exact."""
    return gram_det([list(row) for row in lat.basis])


@dataclass(frozen=True)
class ReducedBasis:
    """LLL basis together with exact successive minima data.

    minima_sq are the exact squared successive minima (enumeration), and
    near_orthogonality is the achieved constant c with
    ||sum l_i z_i|| >= c * sum ||l_i z_i||  (from Gram-Schmidt ratios).
    """

    lattice: IntLattice
    basis: tuple[tuple[int, ...], ...]
    minima_sq: tuple[int, ...]
    minima_vectors: tuple[tuple[int, ...], ...]
    near_orthogonality: float


def reduced_basis(lat: IntLattice, enum_limit: int = 10**7) -> ReducedBasis:
    """LLL-reduce and compute exact successive minima (rank <= 10)."""
    if lat.rank > 10:
        raise RankTooLarge(f"rank {lat.rank} > 10")
    red = lll_reduce([list(r) for r in lat.basis])
    red.sort(key=lambda row: (sum(x * x for x in row), row))
    minima, vecs = successive_minima(red, limit=enum_limit)
    c = near_orthogonality(red)
    return ReducedBasis(
        lattice=lat,
        basis=tuple(tuple(r) for r in red),
        minima_sq=tuple(minima),
        minima_vectors=tuple(tuple(v) for v in vecs),
        near_orthogonality=c,
    )
