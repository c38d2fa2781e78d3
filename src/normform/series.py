"""Truncated Euler products: the singular series, its tilde variant, and
the Perron-limit sieve sum.

Products are multiplied out in stdlib decimal arithmetic at
_DIGITS = 34 significant digits (about 113 bits).  The tilde series has
local factors 1 + O(1/p^2), so its truncation error gets a fully
certified tail bound.  The plain series has a conditionally
convergent first-order part (the zeta-vs-zeta_K coefficient fluctuation);
its tail field combines the certified second-order bound with a clearly
labelled empirical oscillation estimate.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

from .errors import BudgetExceeded, ValidationError
from .fields import FieldSpec
from .localdata import (
    bad_primes,
    nu2_from_degrees,
    nu_from_degrees,
    squarefree_ideal_symbols,
)
from .primes import sieve_primes
from .splitting import batch_degree_patterns, degree_pattern_mod_p

# Products run in a copy of this context, so no caller's decimal settings
# reach a report; Context() copies unnamed fields from DefaultContext.
_DIGITS = 34
_CONTEXT = decimal.Context(prec=_DIGITS, rounding=decimal.ROUND_HALF_EVEN)
# largest Euler-product cutoff
P_CUT_CAP = 10**8


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


def _local_factor_data(ctx: FieldSpec, p_cut: int) -> tuple:
    """(p, nu, nu2, degs, nu_p) for all p <= p_cut, from one batched call.

    For monic f, N(A) = Res(f, A), and reduction mod p keeps deg f, so
    N(A) = 0 mod p exactly when A mod p shares an irreducible factor with
    f mod p (Cohen, A Course in Computational Algebraic Number Theory,
    3.3.2).  So nu, nu_2 and nu_p depend only on the degrees of the
    distinct factors of f mod p, which batch_degree_patterns gives at every
    prime, bad ones included.  degs, the CSV's degree pattern, keeps
    multiplicities: at the few bad primes it comes from a full factorization.
    """
    f = list(ctx.f_coeffs)
    bad = set(bad_primes(ctx))
    ps = sieve_primes(p_cut)
    out = []
    for p, row in zip(ps.tolist(), batch_degree_patterns(f, ps).tolist()):
        distinct = tuple(d for d, c in enumerate(row, 1) for _ in range(c))
        degs = tuple(degree_pattern_mod_p(f, p)[0]) if p in bad else distinct
        out.append((p, nu_from_degrees(distinct, p, ctx.m),
                    nu2_from_degrees(distinct, p, ctx.n), degs, row[0]))
    return tuple(out)


@lru_cache(maxsize=4)
def _local_factors(ctx: FieldSpec, p_cut: int) -> tuple:
    """_local_factor_data once per (ctx, p_cut), shared by every product below."""
    if p_cut < 100:
        raise ValidationError("p_cut must be at least 100")
    if p_cut > P_CUT_CAP:  # sieve_primes holds p_cut + 1 bytes
        raise BudgetExceeded(f"p_cut {p_cut} exceeds the cap {P_CUT_CAP}")
    return _local_factor_data(ctx, p_cut)


def _euler_product(ctx: FieldSpec, p_cut: int, tilde: bool) -> tuple[float, float]:
    """(value, certified tail) of prod_(p <= p_cut) (1 - nu/p^(n-k)) / (1 - b).

    b is nu_2/p^n for the tilde series and 1/p for the plain one.  The tail
    bounds the 1 + O(1/p^2) part of the factors beyond p_cut.
    """
    with decimal.localcontext(_CONTEXT):
        acc = Decimal(1)
        for p, nu, nu2, _degs, _nu_p in _local_factors(ctx, p_cut):
            b = Decimal(nu2) / p**ctx.n if tilde else Decimal(1) / p
            acc *= (1 - Decimal(nu) / p**ctx.m) / (1 - b)
        value = float(acc)
        # |nu/p^m - nu_p/p| <= 2^n / p^2 (subset terms beyond the degree-1
        # singletons), plus series remainders n^2/p^2 and 1/p^2
        c2 = 2**ctx.n + ctx.n**2 + 2
        tail_cert = float((Decimal(c2) / p_cut).exp() - 1) * value
    return value, tail_cert


def singular_series(ctx: FieldSpec, p_cut: int = 10_000) -> SeriesEstimate:
    """S = prod_p (1 - nu(p)/p^(n-k)) (1 - 1/p)^(-1), truncated at p_cut.

    The certified tail covers only the second-order part; the first-order
    (nu_p - 1)/p fluctuation is conditionally convergent and is reported
    through an empirical oscillation estimate.
    """
    value, tail_cert = _euler_product(ctx, p_cut, tilde=False)
    tail_osc = _oscillation_estimate(_local_factors(ctx, p_cut)) * value
    return SeriesEstimate(
        value=value, cutoff=p_cut, tail_cert=tail_cert, tail_osc=tail_osc,
        kind="singular_series",
        notes={"bad_primes_brute_forced": bad_primes(ctx)},
    )


def singular_series_tilde(ctx: FieldSpec, p_cut: int = 10_000) -> SeriesEstimate:
    """S~ = prod_p (1 - nu(p)/p^(n-k)) (1 - nu_2(p)/p^n)^(-1) at q* = 1.

    Local factors are 1 + O(1/p^2), so the tail bound here is certified.
    """
    value, tail_cert = _euler_product(ctx, p_cut, tilde=True)
    return SeriesEstimate(
        value=value, cutoff=p_cut, tail_cert=tail_cert, tail_osc=0.0,
        kind="singular_series_tilde",
        notes={"bad_primes_brute_forced": bad_primes(ctx), "qstar": 1},
    )


def _oscillation_estimate(data: tuple) -> float:
    """Heuristic size of the unresolved sum_(p>P) (nu_p - 1)/p.

    Takes the spread of the partial sums over the last few dyadic windows
    as a forward estimate; labelled non-certified in every report.
    """
    P = data[-1][0]
    sums = itertools.accumulate((nu_p - 1) / p for p, _nu, _nu2, _degs, nu_p in data)
    window = [s for row, s in zip(data, sums) if row[0] > P / 4]
    return 2.0 * (max(window) - min(window)) + 1e-12


def per_prime_factor_table(ctx: FieldSpec, p_cut: int):
    """Rows (p, degree_pattern, nu_p, nu, factor, running_product) for CSV."""
    rows = []
    with decimal.localcontext(_CONTEXT):
        running = Decimal(1)
        for p, nu, _nu2, degs, nu_p in _local_factors(ctx, p_cut):
            factor = (1 - Decimal(nu) / p**ctx.m) / (1 - Decimal(1) / p)
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
