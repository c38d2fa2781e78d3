"""Censuses behind the rarity estimates: the exact F_p wedge-vanishing count
by Moebius inversion over the subspaces of F_p^k (the tests hold a pointwise
rank oracle) and the empirical Archimedean skew statistics."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .fields import FieldSpec, mul_matrix
from .intlinalg import rank_mod_p
from .lattices import wedge_pair


@dataclass
class CensusReport:
    """Tabulated census: grid of parameters, observed counts, reference values."""

    kind: str
    params: list[dict]
    rows: list[dict]
    max_ratio: float = 0.0
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "rows": self.rows,
            "max_ratio": self.max_ratio,
            "notes": self.notes,
        }

    def csv_rows(self):
        if not self.rows:
            return [], []
        header = list(self.rows[0].keys())
        return header, [[r[h] for h in header] for r in self.rows]


def constraint_row_tensors(ctx: FieldSpec) -> list[np.ndarray]:
    """Matrices R_0..R_{k-1} with constraint_rows(v)[i] == R_i @ v."""
    n = ctx.n
    unit_muls = [mul_matrix([int(a == j) for a in range(n)], ctx) for j in range(n)]
    return [np.array([[unit_muls[j][n - 1 - i][a] for j in range(n)] for a in range(n)],
                     dtype=np.int64) for i in range(ctx.k)]


def _subspace_bases(k: int, p: int):
    """RREF bases of the nonzero subspaces of F_p^k."""
    for d in range(1, k + 1):
        for piv in itertools.combinations(range(k), d):
            free = [(r, j) for r, c in enumerate(piv) for j in range(c + 1, k) if j not in piv]
            for vals in itertools.product(range(p), repeat=len(free)):
                basis = [[int(j == c) for j in range(k)] for c in piv]
                for (r, j), v in zip(free, vals):
                    basis[r][j] = v
                yield basis


def fp_wedge_census(p: int, ctx: FieldSpec, budget: int = 10**8) -> int:
    """#{b in F_p^n : all k x k minors of the constraint matrix vanish mod p}.

    They vanish at b iff D(b) = {c in F_p^k : sum c_i R_i b = 0} is nonzero,
    and #{b : D(b) contains W} = p^(n - rank_p R_W), R_W stacking
    sum c_i R_i over a basis c of W.  Moebius inversion over the subspaces
    of F_p^k, mu(0, W) = (-1)^d p^(d(d-1)/2) for dim W = d, sums these.
    The budget gates the work: for each of the [k choose d]_p subspaces of
    dimension d, one rank of a dn x n matrix, d n^3 steps.
    """
    n, k = ctx.n, ctx.k
    # [k choose d]_p = prod_(i < d) (p^k - p^i) / (p^d - p^i)
    work = sum(math.prod(p**k - p**i for i in range(d)) * d * n**3
               // math.prod(p**d - p**i for i in range(d)) for d in range(1, k + 1))
    if work > budget:
        raise BudgetExceeded(f"census work {work} exceeds budget {budget}")
    if k == 0:
        return p**n
    tensors = [(R % p).tolist() for R in constraint_row_tensors(ctx)]
    count = 0
    for basis in _subspace_bases(k, p):
        d = len(basis)
        stacked = [[sum(ci * R[a][j] for ci, R in zip(c, tensors)) for j in range(n)]
                   for c in basis for a in range(n)]
        count += (-1) ** (d + 1) * p ** (d * (d - 1) // 2 + n - rank_mod_p(stacked, p))
    return count


def fp_wedge_census_report(ctx: FieldSpec, primes: list[int],
                           budget: int = 10**8) -> CensusReport:
    """Census across primes with the reference power from the ambient theory.

    Pure fields compare count against p^(k-1), general fields against
    p^(2k-2); ratios are reported, never asserted to a theory constant.
    """
    k = ctx.k
    exponent = (k - 1) if ctx.pure_theta is not None else (2 * k - 2)
    rows = []
    maxr = 0.0
    for p in primes:
        c = fp_wedge_census(p, ctx, budget=budget)
        ref = p**exponent
        ratio = c / ref
        maxr = max(maxr, ratio)
        rows.append({"p": p, "count": c, "reference": ref, "ratio": ratio})
    return CensusReport(
        kind="fp_wedge",
        params=[{"f": list(ctx.f_coeffs), "k": k, "reference_exponent": exponent}],
        rows=rows,
        max_ratio=maxr,
    )


def skew_census(ctx: FieldSpec, B: int, samples: int, kappas: list[float],
                seed: int = 0) -> CensusReport:
    """Empirical frequency of small wedge_pair among random pairs.

    Pairs (b1, b2) are drawn uniformly from integer vectors with
    max-norm-scaled Euclidean length in [B, 2B]; for each kappa the report
    gives the fraction with 0 < ||wedge||^2 <= kappa^2 B^{4k} and the
    fraction with wedge identically zero (degenerate pairs), against the
    kappa^{1/k} reference shape.
    """
    if ctx.k < 1:
        raise ValidationError("the skew census needs k >= 1: its reference is kappa^(1/k)")
    rng = random.Random(seed)
    n, k = ctx.n, ctx.k
    lo2, hi2 = B * B, 4 * B * B

    def draw():
        while True:
            v = [rng.randint(-2 * B, 2 * B) for _ in range(n)]
            s = sum(x * x for x in v)
            if lo2 <= s <= hi2:
                return v

    pairs = [(draw(), draw()) for _ in range(samples)]
    norms_sq = []
    degenerate = 0
    for b1, b2 in pairs:
        w = wedge_pair(b1, b2, ctx)
        if w.is_zero():
            degenerate += 1
            norms_sq.append(0)
        else:
            norms_sq.append(w.norm_sq)
    scale = B ** (4 * k)
    rows = []
    for kappa in kappas:
        thresh = kappa * kappa * scale
        small = sum(1 for s in norms_sq if 0 < s <= thresh)
        incl = sum(1 for s in norms_sq if s <= thresh)  # degenerate pairs too
        freq = small / samples
        ref = kappa ** (1.0 / k) if kappa > 0 else 0.0
        rows.append({
            "kappa": kappa,
            "small_count": small,
            "frequency": freq,
            "frequency_incl_degenerate": incl / samples,
            "reference_shape": ref,
            "ratio": (freq / ref) if ref > 0 else 0.0,
        })
    return CensusReport(
        kind="skew",
        params=[{"f": list(ctx.f_coeffs), "k": k, "B": B,
                 "samples": samples, "seed": seed}],
        rows=rows,
        max_ratio=max((r["ratio"] for r in rows), default=0.0),
        notes={"degenerate_pairs": degenerate,
               "degenerate_frequency": degenerate / samples},
    )
