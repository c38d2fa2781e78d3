"""Singular series, tail bounds, sieve weights and the Perron sum."""

import decimal
import math

import mpmath as mp
import pytest

from normform import series
from normform.errors import BudgetExceeded
from normform.fields import make_context
from normform.localdata import bad_primes, gamma_estimate, squarefree_ideal_symbols
from normform.primes import primes_in
from normform.series import (
    per_prime_factor_table,
    sieve_sum,
    singular_series,
    singular_series_tilde,
)
from test_localdata import materialize_symbol

CTX3 = make_context([-2, 0, 0], 1)
CTX4 = make_context([-2, 0, 0, 0], 1)


class TestSingularSeries:
    def test_mpmath_precision_left_alone(self):
        def values():
            return (singular_series(CTX3, 200), singular_series_tilde(CTX3, 200),
                    per_prime_factor_table(CTX3, 200))

        want = values()
        with mp.workprec(60):
            values()
            assert mp.mp.prec == 60
        caller = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN)
        with decimal.localcontext(caller) as ctx:
            assert values() == want
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_DOWN)
            assert not any(ctx.flags.values())

    def test_p_cut_cap(self, monkeypatch):
        # the cap itself reaches the (stubbed) local factors; one past it
        # exceeds the budget before the sieve is allocated
        monkeypatch.setattr(series, "_local_factor_data", lambda ctx, p_cut: p_cut)
        uncached = series._local_factors.__wrapped__
        assert uncached(CTX3, series.P_CUT_CAP) == series.P_CUT_CAP
        with pytest.raises(BudgetExceeded):
            uncached(CTX3, series.P_CUT_CAP + 1)

    def test_positive_no_fixed_divisor(self):
        S = singular_series(CTX3, 2000)
        assert S.value > 0

    @pytest.mark.parametrize("ctx", [CTX3, CTX4])
    def test_local_density_below_one(self, ctx):
        # N(1, 0, ..., 0) = 1, so nu(p) < p^(n-k) at bad primes too: no
        # local factor of either series vanishes
        rows = series._local_factor_data(ctx, 50)
        assert any(p in bad_primes(ctx) for p, *_ in rows)
        for p, nu, *_ in rows:
            assert nu < p**ctx.m

    def test_one_batched_call_at_every_prime(self, monkeypatch):
        # every row comes from one batch_degree_patterns call over all
        # p <= p_cut, bad primes included; only the CSV pattern at a bad p
        # factors f mod p in full
        batches, singles = [], []
        batch, single = series.batch_degree_patterns, series.degree_pattern_mod_p
        monkeypatch.setattr(series, "batch_degree_patterns",
                            lambda f, ps: batches.append(ps.tolist()) or batch(f, ps))
        monkeypatch.setattr(series, "degree_pattern_mod_p",
                            lambda f, p: singles.append(p) or single(f, p))
        rows = series._local_factor_data(CTX3, 300)
        assert batches == [primes_in(2, 300)] == [[p for p, *_ in rows]]
        assert singles == bad_primes(CTX3) == [2, 3]

    def test_large_bad_prime(self):
        # disc(x^4 + x + 1) = 229: its local factor comes in closed form
        S = singular_series(make_context([1, 1, 0, 0], 1), 10_000)
        assert S.value == 2.2108686200568717

    def test_tilde_cauchy_within_certified_tail(self):
        a = singular_series_tilde(CTX4, 1000)
        b = singular_series_tilde(CTX4, 10000)
        assert abs(a.value - b.value) <= a.tail_cert

    def test_plain_cauchy_within_combined_tail(self):
        a = singular_series(CTX4, 1000)
        b = singular_series(CTX4, 10000)
        assert abs(a.value - b.value) <= a.tail_bound

    def test_unit_shape_factors(self):
        # fields where nu_p = 1 for a prime give factor near 1: sanity on
        # the per-prime table
        from normform.series import per_prime_factor_table

        rows = per_prime_factor_table(CTX3, 200)
        for r in rows:
            if r["nu_p"] == 1 and r["p"] > 3:
                assert abs(r["factor"] - 1.0) < 0.25

    def test_identity_s_equals_tilde_over_gamma(self):
        # S = S~ / gamma_K at q* = 1; with good-support counting the
        # estimator carries the bad-prime exclusion factor, which for
        # X^3 - 2 is exactly 1/3 of gamma_K and the tilde bad factors are 1
        S = singular_series(CTX3, 10000)
        St = singular_series_tilde(CTX3, 10000)
        gam_hat = gamma_estimate(10**6, CTX3)
        # gamma_hat = gamma_K * (1 - 1/2)(1 - 1/3) = gamma_K / 3
        assert St.value / (3 * gam_hat) == pytest.approx(S.value, rel=0.01)

    def test_pcut_guard(self):
        with pytest.raises(ValueError):
            singular_series(CTX3, 50)

    @pytest.mark.parametrize("fc, k", [([1, 0], 0), ([-2, 0, 0], 1), ([-1, -1, 0], 1),
                                       ([-2, 0, 0, 0], 2), ([-2, 0, 0, 0, 0], 1)])
    @pytest.mark.parametrize("p_cut", [100, 10_000])
    def test_product_matches_log_sum_oracle(self, fc, k, p_cut):
        ctx = make_context(fc, k)
        for tilde in (False, True):
            assert series._euler_product(ctx, p_cut, tilde)[0] == log_sum_product(
                ctx, p_cut, tilde)
        rows = per_prime_factor_table(ctx, p_cut)
        assert rows[-1]["running_product"] == singular_series(ctx, p_cut).value


def log_sum_product(ctx, p_cut, tilde):
    """exp of the summed log local factors at the same 34 digits: the
    oracle for the multiplied-out Euler product."""
    with decimal.localcontext(series._CONTEXT):
        acc = decimal.Decimal(0)
        for p, nu, nu2, _degs, _nu_p in series._local_factors(ctx, p_cut):
            b = decimal.Decimal(nu2) / p**ctx.n if tilde else decimal.Decimal(1) / p
            acc += (1 - decimal.Decimal(nu) / p**ctx.m).ln() - (1 - b).ln()
        return float(acc.exp())


def sieve_weights(R, ctx):
    """Squarefree good-support ideals of norm < R with lambda = mu log(R/N)."""
    return [(materialize_symbol(factors, ctx), mu * math.log(R / nrm))
            for factors, nrm, mu, _rho in squarefree_ideal_symbols(ctx, R)]


class TestSieveWeights:
    def test_unit_ideal_weight(self):
        R = 50
        ws = sieve_weights(R, CTX3)
        unit = next(w for sym, w in ws if sym.factors == ())
        assert unit == pytest.approx(math.log(R))

    def test_norm_at_least_R_absent(self):
        R = 50
        ws = sieve_weights(R, CTX3)
        assert all(sym.norm < R for sym, _ in ws)

    def test_degree_one_weight(self):
        R = 50
        ws = sieve_weights(R, CTX3)
        for sym, w in ws:
            if len(sym.factors) == 1 and sym.factors[0][0].degree == 1:
                p = sym.factors[0][0].p
                assert w == pytest.approx(-math.log(R / p))


class TestSieveSum:
    def test_small_R_only_unit(self):
        # R below the smallest good prime-ideal norm: only the unit ideal
        # contributes log R.  Smallest good prime norm for X^3-2 is 5.
        assert sieve_sum(5, CTX3) == pytest.approx(math.log(5))

    def test_trend_toward_target(self):
        St = singular_series_tilde(CTX3, 10000)
        gam = gamma_estimate(10**6, CTX3)
        target = St.value / gam
        gaps = [abs(sieve_sum(R, CTX3) - target) for R in (100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / target < 0.10
