"""Truncated Euler products: the singular series, its tilde variant, and
the Perron-limit sieve sum.

Products accumulate in log space with 80+ bit mpmath arithmetic.  The
tilde series has local factors 1 + O(1/p^2), so its truncation error gets
a fully certified tail bound.  The plain series has a conditionally
convergent first-order part (the zeta-vs-zeta_K coefficient fluctuation);
its tail field combines the certified second-order bound with a clearly
labelled empirical oscillation estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import BudgetExceeded
from .fields import FieldSpec
from .localdata import (
    bad_primes,
    local_data,
    materialize_symbol,
    nu2_from_degrees,
    _nu_from_degrees,
    squarefree_ideal_symbols,
)
from .primes import sieve_primes
from .splitting import batch_degree_patterns

_PREC_BITS = 100


@dataclass
class SeriesEstimate:
    """Truncated Euler product with explicit error accounting.

    tail_cert is a certified bound on the truncation error contributed by
    the 1 + O(1/p^2) part of the local factors; tail_osc is an empirical
    (not certified) estimate of the conditionally convergent first-order
    part, zero for the tilde series where no such part exists.
    """

    value: float
    cutoff: int
    tail_cert: float
    tail_osc: float
    kind: str
    notes: dict

    @property
    def tail_bound(self) -> float:
        return self.tail_cert + self.tail_osc

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "cutoff": self.cutoff,
            "tail_bound": self.tail_bound,
            "tail_certified": self.tail_cert,
            "tail_oscillation_estimate": self.tail_osc,
            "kind": self.kind,
            "notes": self.notes,
        }


def _local_factor_data(ctx: FieldSpec, p_cut: int):
    """(p, nu, nu2) for all p <= p_cut; batch formulas at good p, brute at bad p."""
    bad = set(bad_primes(ctx))
    ps = sieve_primes(p_cut)
    good = np.array([p for p in ps.tolist() if p not in bad], dtype=np.int64)
    pats = batch_degree_patterns(list(ctx.f_coeffs), good)
    out = []
    for i, p in enumerate(good.tolist()):
        degs = [d for d in range(1, ctx.n + 1) for _ in range(int(pats[i, d - 1]))]
        nu_p = int(pats[i, 0])
        out.append((p, _nu_from_degrees(degs, p, ctx.m),
                    nu2_from_degrees(degs, p, ctx.n), degs, nu_p))
    for p in sorted(bad):
        if p > p_cut:
            continue
        ld = local_data(p, ctx)
        if ld.nu is None or ld.nu2 is None:
            raise BudgetExceeded(f"bad prime {p} too large for brute force")
        out.append((p, ld.nu, ld.nu2, list(ld.degree_pattern), ld.nu_p))
    out.sort()
    return out


def _second_order_constant(ctx: FieldSpec) -> float:
    # |nu/p^m - nu_p/p| <= 2^n / p^2 (subset terms beyond the degree-1
    # singletons), plus series remainders n^2/p^2 and 1/p^2
    return 2.0**ctx.n + ctx.n**2 + 2.0


def singular_series(ctx: FieldSpec, p_cut: int = 10_000) -> SeriesEstimate:
    """S = prod_p (1 - nu(p)/p^(n-k)) (1 - 1/p)^(-1), truncated at p_cut.

    The certified tail covers only the second-order part; the first-order
    (nu_p - 1)/p fluctuation is conditionally convergent and is reported
    through an empirical oscillation estimate.
    """
    if p_cut < 100:
        raise ValueError("p_cut must be at least 100")
    data = _local_factor_data(ctx, p_cut)
    partial_first_order = []
    with mp.workprec(_PREC_BITS):
        log_acc = mp.mpf(0)
        for p, nu, nu2, degs, nu_p in data:
            a = mp.mpf(nu) / mp.mpf(p) ** ctx.m
            # a < 1: N(1, 0, ..., 0) = 1, so nu(p) < p^(n-k) at every p
            log_acc += mp.log(1 - a) - mp.log(1 - mp.mpf(1) / p)
            partial_first_order.append((p, (nu_p - 1) / p))
        value = float(mp.e**log_acc)
        c2 = _second_order_constant(ctx)
        tail_cert = float(mp.expm1(mp.mpf(c2) / p_cut)) * value
    tail_osc = _oscillation_estimate(partial_first_order) * value
    return SeriesEstimate(
        value=value, cutoff=p_cut, tail_cert=tail_cert,
        tail_osc=tail_osc, kind="singular_series",
        notes={"bad_primes_brute_forced": bad_primes(ctx)},
    )


def singular_series_tilde(ctx: FieldSpec, p_cut: int = 10_000) -> SeriesEstimate:
    """S~ = prod_p (1 - nu(p)/p^(n-k)) (1 - nu_2(p)/p^n)^(-1) at q* = 1.

    Local factors are 1 + O(1/p^2), so the tail bound here is certified.
    """
    if p_cut < 100:
        raise ValueError("p_cut must be at least 100")
    data = _local_factor_data(ctx, p_cut)
    with mp.workprec(_PREC_BITS):
        log_acc = mp.mpf(0)
        for p, nu, nu2, _degs, _nu_p in data:
            a = mp.mpf(nu) / mp.mpf(p) ** ctx.m
            b = mp.mpf(nu2) / mp.mpf(p) ** ctx.n
            # a < 1: N(1, 0, ..., 0) = 1, so nu(p) < p^(n-k) at every p
            log_acc += mp.log(1 - a) - mp.log(1 - b)
        value = float(mp.e**log_acc)
        c2 = _second_order_constant(ctx)
        tail_cert = float(mp.expm1(mp.mpf(c2) / p_cut)) * value
    return SeriesEstimate(
        value=value, cutoff=p_cut, tail_cert=tail_cert, tail_osc=0.0,
        kind="singular_series_tilde",
        notes={"bad_primes_brute_forced": bad_primes(ctx), "qstar": 1},
    )


def _oscillation_estimate(first_order: list[tuple[int, float]]) -> float:
    """Heuristic size of the unresolved sum_(p>P) (nu_p - 1)/p.

    Takes the spread of the partial sums over the last few dyadic windows
    as a forward estimate; labelled non-certified in every report.
    """
    if not first_order:
        return 0.0
    P = first_order[-1][0]
    acc = 0.0
    sums = []
    for p, t in first_order:
        acc += t
        sums.append((p, acc))
    window = [s for p, s in sums if p > P / 4]
    if not window:
        return 0.0
    return 2.0 * (max(window) - min(window)) + 1e-12


def per_prime_factor_table(ctx: FieldSpec, p_cut: int):
    """Rows (p, degree_pattern, nu_p, nu, factor, running_product) for CSV."""
    data = _local_factor_data(ctx, p_cut)
    rows = []
    with mp.workprec(_PREC_BITS):
        running = mp.mpf(1)
        for p, nu, nu2, degs, nu_p in data:
            factor = (1 - mp.mpf(nu) / mp.mpf(p) ** ctx.m) / (1 - mp.mpf(1) / p)
            running *= factor
            rows.append({
                "p": p,
                "degree_pattern": "+".join(str(d) for d in degs),
                "nu_p": nu_p,
                "nu": nu,
                "factor": float(factor),
                "running_product": float(running),
            })
    return rows


# --- sieve weights and the Perron sum -----------------------------------------


def sieve_weights(R: int, ctx: FieldSpec, budget: int = 10**6):
    """Squarefree good-support ideals of norm < R with lambda = mu log(R/N)."""
    if R > budget:
        raise BudgetExceeded(f"R = {R} exceeds budget {budget}")
    out = []
    for factors, nrm, mu, _rho in squarefree_ideal_symbols(ctx, R):
        lam = mu * math.log(R / nrm)
        out.append((materialize_symbol(factors, ctx), lam))
    return out


def sieve_sum(R: int, ctx: FieldSpec, budget: int = 10**6) -> float:
    """sum over N(d) < R of mu(d) rho(d) / N(d) * log(R / N(d)).

    Exact finite sum over the squarefree good-support enumeration; its
    Perron-formula limit is S~ / gamma (q* = 1 convention), with gamma the
    bad-prime-excluded zeta residue that gamma_estimate approximates.
    """
    if R > budget:
        raise BudgetExceeded(f"R = {R} exceeds budget {budget}")
    acc = 0.0
    for factors, nrm, mu, rho_val in squarefree_ideal_symbols(ctx, R):
        acc += mu * float(rho_val) / nrm * math.log(R / nrm)
    return acc
