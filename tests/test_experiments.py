"""End-to-end experiment pipelines at small scale."""

import functools
import itertools
import json
import logging
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normform import experiments
from normform.errors import BudgetExceeded, ValidationError
from normform.experiments import (
    ExperimentConfig,
    _claim_regime,
    _slab_survivors,
    _tau_sieve,
    divisor_sum_check,
    log_norm_integral,
    observed_prime_count,
    predicted_main_term,
    theorem_check,
    typei_discrepancy,
    typeii_density_check,
)
from normform.fields import eval_norm_poly_grid, make_context, norm_form_polynomial
from normform.integrals import PolytopeSpec
from normform.localdata import _prime_ideal_norm_table, bad_primes, ideal_tau, resultant
from normform.primes import (
    BATCH_HI,
    WindowFactors,
    certify,
    factorize,
    is_prime_certified,
    primes_in,
    sieve_primes,
    window_factorizations,
)
from normform.primes import tau as tau_oracle
from normform.splitting import degree_pattern_mod_p, roots_mod_p
from test_primes import FIRST_BATCHED, LAST_STRIDED, windows

CTX3 = make_context([-2, 0, 0], 1)
CTX4 = make_context([-2, 0, 0, 0], 1)
CTXG = make_context([1, 0], 0)
# n - k = 2 fields: pure and general cubics, a quartic and a quintic
SIEVE_FIELDS = [make_context(c, k) for c, k in (
    ([-2, 0, 0], 1), ([-1, -1, 0], 1), ([3, 1, 0], 1),
    ([-2, 0, 0, 0], 2), ([-2, 0, 0, 0, 0], 3))]
REFERENCES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "references.json").read_text())


def oracle_norm(x, ctx):
    """Norm via the Sylvester resultant, independent of the grid evaluator."""
    return resultant(list(ctx.f_coeffs), list(x) + [0] * ctx.k)


def oracle_is_prime(n: int) -> bool:
    """Trial division, independent of the Miller-Rabin path."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestObservedPrimeCount:
    def test_matches_independent_oracle(self):
        cfg = ExperimentConfig(ctx=CTX3, X=10, p_cut=200, seed=1)
        pos, neg, slabs = observed_prime_count(cfg)
        oracle_pos = sum(
            1 for x in itertools.product(range(1, 11), repeat=2)
            if oracle_norm(x, CTX3) >= 2 and oracle_is_prime(oracle_norm(x, CTX3)))
        assert pos == oracle_pos

    def test_negative_norms_reported(self):
        cfg = ExperimentConfig(ctx=CTX4, X=12, p_cut=200, seed=1)
        pos, neg, _slabs = observed_prime_count(cfg)
        oracle_pos = oracle_neg = 0
        for x in itertools.product(range(1, 13), repeat=3):
            v = oracle_norm(x, CTX4)
            if v >= 2 and oracle_is_prime(v):
                oracle_pos += 1
            if v <= -2 and oracle_is_prime(-v):
                oracle_neg += 1
        assert (pos, neg) == (oracle_pos, oracle_neg)

    def test_single_point_box(self):
        cfg = ExperimentConfig(ctx=CTX3, X=2, box=((1, 1), (1, 1)), seed=0)
        pos, neg, _s = observed_prime_count(cfg)
        assert (pos + neg) in (0, 1)
        assert pos == 1  # N(1,1) = 3 is prime

    def test_monotone_in_X(self):
        counts = []
        for X in (5, 10, 20, 30):
            cfg = ExperimentConfig(ctx=CTX3, X=X, seed=0)
            counts.append(observed_prime_count(cfg)[0])
        assert counts == sorted(counts)

    def test_threads_do_not_change_result(self):
        c1 = ExperimentConfig(ctx=CTX3, X=25, seed=3, threads=1)
        c2 = ExperimentConfig(ctx=CTX3, X=25, seed=3, threads=4)
        assert observed_prime_count(c1)[:2] == observed_prime_count(c2)[:2]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            cfg = ExperimentConfig(ctx=CTX3, X=10**5, point_budget=10**5)
            observed_prime_count(cfg)

    def test_polynomial_built_once_before_the_workers(self):
        ctx = make_context([-2, 0, 0, 0, 0, 0], 1)  # m = 5
        norm_form_polynomial.cache_clear()
        observed_prime_count(ExperimentConfig(ctx=ctx, X=4, seed=0, threads=2))
        assert norm_form_polynomial.cache_info().misses == 1

    def test_int64_guard_bounds_lower_end(self):
        # N(-70000, 1, 1) = 24009999980399440002 wraps in int64
        assert oracle_norm((-70000, 1, 1), CTX4) == 24009999980399440002
        cfg = ExperimentConfig(ctx=CTX4, X=2, box=((-70000, 1), (1, 1), (1, 1)))
        with pytest.raises(BudgetExceeded):
            observed_prime_count(cfg)


LARGEST_PRIME_BELOW_2_32 = 4294967291
SMALLEST_PRIME_ABOVE_2_32 = 4294967311


def scalar_counts(vals):
    pos = sum(is_prime_certified(v)[0] for v in vals if v >= 2)
    neg = sum(is_prime_certified(-v)[0] for v in vals if v <= -2)
    return pos, neg


def _count_primes_in_values(vals):
    """observed_prime_count's two phases on the values of one slab:
    (# N >= 2 prime, # N <= -2 with |N| prime, (# removed by trial
    division, # batch-tested, # scalar-tested))."""
    pos, neg, removed, v, positive = _slab_survivors(np.asarray(vals))
    prime, _parts = certify(v)
    batch = int(np.count_nonzero(v < BATCH_HI))
    return (pos + int(np.count_nonzero(prime & positive)),
            neg + int(np.count_nonzero(prime & ~positive)),
            (removed, batch, v.size - batch))


class TestCountRouting:
    def test_both_sides_of_the_batch_guard(self):
        vals = np.array([LARGEST_PRIME_BELOW_2_32, SMALLEST_PRIME_ABOVE_2_32,
                         -LARGEST_PRIME_BELOW_2_32, -SMALLEST_PRIME_ABOVE_2_32,
                         2**32 - 1, 2**32 + 1])
        # (sieved, batch-tested, scalar-tested): 2^32 -+ 1 have factors 3 and 641
        assert _count_primes_in_values(vals) == (2, 2, (1, 2, 3))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(-2**36, 2**36),
                              st.integers(2**32 - 3000, 2**32 + 3000),
                              st.integers(-2**32 - 3000, -2**32 + 3000),
                              st.integers(-200, 200)),
                    max_size=80))
    def test_matches_all_scalar_count(self, vals):
        vals = vals + [LARGEST_PRIME_BELOW_2_32, SMALLEST_PRIME_ABOVE_2_32]
        pos, neg, _work = _count_primes_in_values(np.array(vals))
        assert (pos, neg) == scalar_counts(vals)


def primality_line(caplog) -> tuple[str, tuple[int, int, int]]:
    """The last primality log line and its (removed by trial division,
    batch-tested, scalar-tested)."""
    line = [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("primality")][-1]
    return line, tuple(map(int, re.search(
        r"(\d+) removed by the small-prime sieve, (\d+) batch-tested, "
        r"(\d+) scalar-tested", line).groups()))


class TestGatheredBatches:
    """observed_prime_count trial-divides each slab, then certifies the
    survivors of every slab together and counts each verdict back to its
    slab."""

    # x^3 - 2 on x1 in [1600, 1650], x2 in [1, 5]: 130 values below 2^32, 125 above
    BOUNDARY_BOX = ((1600, 1650), (1, 5))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_batches_at_the_2_32_boundary(self, threads, caplog):
        cfg = ExperimentConfig(ctx=CTX3, X=2, box=self.BOUNDARY_BOX, threads=threads)
        with caplog.at_level(logging.INFO, logger="normform"):
            pos, neg, slabs = observed_prime_count(cfg)
        small = [p for p in range(2, 62) if is_prime_certified(p)[0]]
        tally = [0, 0, 0]
        for (x1, x2) in itertools.product(range(1600, 1651), range(1, 6)):
            v = abs(oracle_norm((x1, x2), CTX3))
            if any(v % p == 0 for p in small):
                tally[0] += 1
            else:
                tally[1 if v < 2**32 else 2] += 1
        assert primality_line(caplog)[1] == tuple(tally) == (212, 21, 22)
        bounds = [(s["x1_lo"], s["x1_hi"]) for s in slabs]
        assert len(bounds) == max(4 * threads, 8)
        assert bounds[0][0] == 1600 and bounds[-1][1] == 1650
        assert all(b + 1 == a for (_, b), (a, _) in zip(bounds, bounds[1:]))
        for s in slabs:
            norms = [oracle_norm(x, CTX3) for x in itertools.product(
                range(s["x1_lo"], s["x1_hi"] + 1), range(1, 6))]
            assert s["points"] == len(norms)
            assert (s["primes_pos"], s["primes_neg"]) == scalar_counts(norms)
        assert (pos, neg) == (sum(s["primes_pos"] for s in slabs),
                              sum(s["primes_neg"] for s in slabs))

    def test_benchmark_box_tally(self, caplog):
        cfg = ExperimentConfig(ctx=CTX4, X=80, threads=2)
        with caplog.at_level(logging.INFO, logger="normform"):
            pos, neg, _slabs = observed_prime_count(cfg)
        line, tally = primality_line(caplog)
        assert tally == (394_604, 117_384, 0) and "in 2 batches" in line
        assert (pos, neg) == (43_706, 9_057)


def test_info_log_one_line_per_stage(caplog):
    cfg = ExperimentConfig(ctx=CTX3, X=10, p_cut=200, seed=1)
    with caplog.at_level(logging.INFO, logger="normform"):
        theorem_check(cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "normform"]
    assert [m.split(":")[0] for m in lines] == [
        "box evaluation", "primality", "singular series", "log-integral"]
    assert all(re.search(r": \d+\.\d{3} s", m) for m in lines)
    values, sieved, batch, scalar = map(int, re.search(
        r"(\d+) values, (\d+) removed by the small-prime sieve, "
        r"(\d+) batch-tested, (\d+) scalar-tested", lines[1]).groups())
    assert values == 100 and scalar == 0 and 0 < sieved + batch <= values


class TestPredictedMainTerm:
    def test_empty_integration_domain(self):
        # norm below 2 everywhere on a tiny negative-side box is impossible
        # for [1,X] boxes; emulate with a box where N is huge instead and
        # check positivity, then the degenerate m=1 surrogate below
        cfg = ExperimentConfig(ctx=CTX3, X=10, seed=0)
        val, err, S = predicted_main_term(cfg)
        assert val > 0 and err >= 0

    def test_m1_log_integral_cross_check(self):
        # n=2, k=1: norm form is x^2, so the integral is
        # int_1^X dt / log(t^2) over the region t^2 >= 2; compare with an
        # independent Simpson evaluation
        ctx = make_context([1, 0], 1)  # X^2 + 1, k = 1 -> m = 1
        cfg = ExperimentConfig(ctx=ctx, X=50, seed=0)
        got, err = log_norm_integral(cfg)

        def f(t):
            return 1 / math.log(t * t) if t * t >= 2 else 0.0

        lo, hi, n = 1.0, 50.0, 200001
        h = (hi - lo) / (n - 1)
        acc = f(lo) + f(hi)
        for i in range(1, n - 1):
            acc += f(lo + i * h) * (4 if i % 2 else 2)
        simpson = acc * h / 3
        # the N >= 2 indicator kinks the integrand at sqrt(2); the reported
        # refinement error covers the Gauss-Legendre loss there
        assert abs(got - simpson) <= max(err, 1e-6)
        assert got == pytest.approx(simpson, rel=1e-3)

    def test_mc_seed_stability(self):
        vals = []
        for seed in range(5):
            cfg = ExperimentConfig(ctx=CTX4, X=30, seed=seed, mc_samples=80_000)
            v, e = log_norm_integral(cfg)
            vals.append((v, e))
        center = sum(v for v, _ in vals) / len(vals)
        for v, e in vals:
            assert abs(v - center) < 4 * e + 1e-9

    def test_deterministic(self):
        cfg = ExperimentConfig(ctx=CTX4, X=30, seed=11)
        assert log_norm_integral(cfg) == log_norm_integral(cfg)

    @staticmethod
    def per_monomial_values(poly, pts):
        """Oracle: each monomial with its own fresh powers, in key order."""
        vals = np.zeros(pts.shape[0])
        for ex, c in poly.items():
            term = np.full(pts.shape[0], float(c))
            for var, e in enumerate(ex):
                if e:
                    term = term * pts[:, var] ** e
            vals += term
        return vals

    def test_power_table_matches_per_monomial_oracle(self, monkeypatch):
        # x^8 - 3x + 3, k = 2: m = 6, a Monte Carlo integral over 534 monomials
        ctx = make_context([3, -3, 0, 0, 0, 0, 0, 0], 2)
        poly = norm_form_polynomial(ctx)
        pts = np.random.default_rng(5).random((3125, ctx.m)) * 4
        assert experiments._poly_values(poly, pts).tolist() == \
            self.per_monomial_values(poly, pts).tolist()
        cfg = ExperimentConfig(ctx=ctx, X=4, seed=3, mc_samples=16_384)
        got = log_norm_integral(cfg)
        monkeypatch.setattr(experiments, "_poly_values", self.per_monomial_values)
        assert got == log_norm_integral(cfg)

    @pytest.mark.parametrize("low, k, X, samples", [
        ([1, 0], 1, 50, 200_000),  # m = 1: Gauss-Legendre
        ([-2, 0, 0], 1, 40, 200_000),  # m = 2: Gauss-Legendre
        ([-2, 0, 0, 0], 1, 80, 400_000),  # the prime_count benchmark's Monte Carlo
    ])
    def test_columns_match_per_monomial_oracle(self, monkeypatch, low, k, X, samples):
        cfg = ExperimentConfig(ctx=make_context(low, k), X=X, seed=1, mc_samples=samples)
        got = log_norm_integral(cfg)
        monkeypatch.setattr(experiments, "_poly_values", self.per_monomial_values)
        assert list(map(float.hex, got)) == list(map(float.hex, log_norm_integral(cfg)))


class TestTheoremCheck:
    def test_small_scale_ratio(self):
        cfg = ExperimentConfig(ctx=CTX3, X=40, p_cut=2000, seed=7)
        rep = theorem_check(cfg)
        assert 0.8 < rep.ratio < 1.25
        assert rep.details["regime"] == "outside_theory"  # n=3 < 22k/7

    def test_regime_flags(self):
        assert theorem_check(
            ExperimentConfig(ctx=CTX4, X=15, p_cut=500, seed=1)
        ).details["regime"] == "asymptotic"  # n=4 >= 4k
        assert theorem_check(
            ExperimentConfig(ctx=CTXG, X=25, p_cut=500, seed=1)
        ).details["regime"] == "asymptotic"  # k=0 control

    def test_lower_bound_needs_a_pure_field(self):
        # 4k > n = 7 and 7n >= 22k: the lower bound is proved for pure fields only
        assert _claim_regime(7, 2, pure=True) == "lower_bound"
        assert _claim_regime(7, 2, pure=False) == "outside_theory"
        assert _claim_regime(8, 2, pure=False) == "asymptotic"
        assert _claim_regime(3, 1, pure=True) == "outside_theory"

    def test_deterministic_given_seed(self):
        cfg = lambda: ExperimentConfig(ctx=CTX3, X=30, p_cut=500, seed=5)
        r1, r2 = theorem_check(cfg()), theorem_check(cfg())
        assert r1.observed == r2.observed and r1.predicted == r2.predicted

    def test_norm_below_two_box(self):
        # on {-1} x {-1} the norm is -3 < 2: the positive-side count and the
        # integral both vanish (the lone negative prime is reported aside)
        cfg = ExperimentConfig(ctx=CTX3, X=2, box=((-1, -1), (-1, -1)),
                               p_cut=200, seed=0)
        rep = theorem_check(cfg)
        assert rep.observed == 0 and rep.predicted == 0.0
        assert rep.details["observed_negative_norm_primes"] == 1


class TestTypeI:
    def test_congruence_counts_vs_brute(self):
        from normform.experiments import _congruence_count
        from normform.localdata import degree1_prime_ideals

        box = ((1, 50), (1, 50))
        for p in (11, 13, 17, 19):
            for pi in degree1_prime_ideals(p, CTX3):
                got = _congruence_count(box, pi.label, p)
                want = sum(1 for x1 in range(1, 51) for x2 in range(1, 51)
                           if (x1 + pi.label * x2) % p == 0)
                assert got == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-10**15, 10**15) | st.integers(10**12, 10**15),
                              st.integers(0, 12)), min_size=1, max_size=3),
           st.integers(2, 2 * 10**6) | st.integers(10**5, 2 * 10**6), st.booleans(), st.data())
    def test_congruence_count_vs_python_brute(self, axes, p, plant, data):
        # coordinates up to 10^15 and p up to 2 * 10^6: x * r would wrap int64
        # unless every axis is reduced mod p first
        from normform.experiments import _congruence_count

        r = data.draw(st.integers(0, p - 1))
        lo1, w1 = axes[0]
        if plant:  # shift x_1's range so that the box's low corner is a solution
            lo1 -= sum(lo * r**i for i, (lo, _) in enumerate(axes)) % p
        box = ((lo1, lo1 + w1),) + tuple((lo, lo + w) for lo, w in axes[1:])
        want = sum(1 for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
                   if sum(xi * r**i for i, xi in enumerate(x)) % p == 0)
        assert _congruence_count(box, r, p) == want

    def test_dyadic_report(self):
        cfg = ExperimentConfig(ctx=CTX3, X=50, seed=0)
        rep = typei_discrepancy(cfg, 16, 128)
        assert all(b["per_term_bound_ok"] for b in rep.details["blocks"])
        assert rep.details["max_block_over_fitted"] <= 3.0

    def test_empty_congruence_contributes_main_term(self):
        # p larger than every norm in the box, linear form never vanishing:
        # the term equals #A/p exactly
        from normform.experiments import _congruence_count

        box = ((1, 4), (1, 4))
        p = 9973
        cnt = _congruence_count(box, 1, p)  # x1 + x2 = 0 mod p: impossible
        assert cnt == 0


@functools.lru_cache(maxsize=None)
def window_prime_tuples(X, eta, ell):
    """Every ordered ell-tuple of primes with product in [X, X(1+eta)], as
    its exponents log p_i / log X; built from primes_in, with no factoring."""
    lo, hi = X, int(X * (1 + eta))
    logX = math.log(X)
    ps = primes_in(2, hi >> (ell - 1))
    out = []

    def grow(prefix, prod):
        if len(prefix) == ell:
            if prod >= lo:
                out.append(tuple(math.log(p) / logX for p in prefix))
            return
        for p in ps:
            if prod * p << (ell - len(prefix) - 1) > hi:
                break
            grow(prefix + (p,), prod * p)

    grow((), 1)
    return out


def typeii_oracle(intervals, X, eta):
    return sum(all(a <= e <= b for e, (a, b) in zip(tup, intervals))
               for tup in window_prime_tuples(X, eta, len(intervals)))


def log_ratio(p, X):
    return math.log(p) / math.log(X)


@st.composite
def typeii_boxes(draw, X, ell):
    # endpoints exactly at log p / log X for primes in and around the window
    exact = [log_ratio(p, X) for p in (2, 3, 5, 23, 97, 101, 1009, 4999)]
    endpoint = st.one_of(st.floats(0.02, 1.05), st.sampled_from(exact))
    return [tuple(sorted((draw(endpoint), draw(endpoint)))) for _ in range(ell)]


def omega_rows_oracle(facs: list[dict[int, int]], ell: int) -> np.ndarray:
    """_omega_rows read entry by entry from the {prime: exponent} dicts."""
    lens = np.fromiter(map(len, facs), np.int64, len(facs))
    # the empty factorization of 1 has Omega = 0, and reduceat needs entries
    cand = np.flatnonzero((lens > 0) & (lens <= ell))
    if not cand.size:
        return np.zeros((0, ell), dtype=np.int64)
    facs = [facs[i] for i in cand.tolist()]
    lens = lens[cand]
    size = int(lens.sum())
    ps = np.fromiter(itertools.chain.from_iterable(facs), np.int64, size)
    es = np.fromiter(itertools.chain.from_iterable(map(dict.values, facs)), np.int64, size)
    omega = np.add.reduceat(es, np.cumsum(lens) - lens)
    keep = np.repeat(omega == ell, lens)
    rows = np.repeat(ps[keep], es[keep]).reshape(-1, ell)
    return np.sort(rows, axis=1)


class TestTypeIIOracle:
    """typeii_density_check's observed count against ordered prime tuples
    enumerated directly."""

    @pytest.fixture(scope="class")
    def block_at_1e6(self):
        return window_factorizations(10**6, 10**6 + experiments.TYPEII_BLOCK)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_omega_rows_match_dict_oracle(self, block_at_1e6, ell):
        rows = experiments._omega_rows(block_at_1e6, ell)
        oracle = omega_rows_oracle(list(block_at_1e6), ell)
        assert rows.dtype == np.int64 and rows.shape == oracle.shape
        assert len(rows) > 0
        assert np.array_equal(rows, oracle)
        assert (np.diff(rows, axis=1) >= 0).all()  # ascending along each row

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(windows())
    @example((1, 300))
    @example((1, 2))  # only m = 1, the empty factorization
    @example((LAST_STRIDED**2 - 1500, LAST_STRIDED**2 + 1500))
    @example((FIRST_BATCHED**2 - 1500, FIRST_BATCHED**2 + 1500))
    @example((LAST_STRIDED**2 - 299, LAST_STRIDED**2 + 1))  # hi - 1 is a prime square ...
    @example((FIRST_BATCHED**2 - 299, FIRST_BATCHED**2 + 1))  # ... of the one batched prime
    @example((FIRST_BATCHED**3 - 1500, FIRST_BATCHED**3 + 1500))
    def test_window_omega_rows_match_dict_oracle(self, window):
        # the oracle reads factorize's dicts, not the window table
        lo, hi = window
        facs = window_factorizations(lo, hi)
        items = [factorize(m) for m in range(lo, hi)]
        for ell in (1, 2, 3):
            rows = experiments._omega_rows(facs, ell)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, omega_rows_oracle(items, ell))

    def test_window_never_ordered_by_typeii(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the window table was put in position order")
        monkeypatch.setattr(WindowFactors, "_ordered", property(refuse))
        with pytest.raises(AssertionError, match="position order"):
            window_factorizations(10, 20)[0]  # the spy is in place
        for intervals in ([(0.3, 0.6), (0.3, 0.75)], [(0.05, 1.0)] * 3):
            rep = typeii_density_check(PolytopeSpec.make(intervals), 10**4, 0.5)
            assert rep.observed == typeii_oracle(intervals, 10**4, 0.5) > 0

    @pytest.mark.parametrize("intervals", [
        [(log_ratio(23, 10**4),) * 2] * 3,  # only 23^3 = 12167, at exact endpoints
        [(0.07, 0.08), (0.07, 0.08), (0.8, 1.0)],  # 2 * 2 * q in that order only
        [(0.05, 1.0)] * 3,  # p^2 q in all three orders, p^3, pqr
        [(0.3, 0.6), (0.3, 0.75)],
        [(log_ratio(101, 10**4), 0.9)] * 2,
    ])
    def test_boxes_with_equal_entries(self, intervals):
        rep = typeii_density_check(PolytopeSpec.make(intervals), 10**4, 0.5)
        assert rep.observed == typeii_oracle(intervals, 10**4, 0.5)

    def test_single_cube(self):
        box = [(log_ratio(23, 10**4),) * 2] * 3
        assert typeii_density_check(PolytopeSpec.make(box), 10**4, 0.5).observed == 1

    @pytest.mark.parametrize("X, ell", [(2000, 2), (10**4, 2), (2000, 3), (10**4, 3)])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_boxes(self, X, ell, data):
        intervals = data.draw(typeii_boxes(X, ell))
        rep = typeii_density_check(PolytopeSpec.make(intervals), X, 0.5)
        assert rep.observed == typeii_oracle(intervals, X, 0.5)


def scalar_ordered_tuples(rows: np.ndarray, intervals, logX: float) -> int:
    """_count_ordered_tuples one row and one ordering at a time, with the
    scalar math.log."""
    return sum(all(a <= math.log(p) / logX <= b for p, (a, b) in zip(tup, intervals))
               for row in rows.tolist() for tup in set(itertools.permutations(row)))


class TestLogEdgeRescue:
    """Box edges placed exactly at math.log(p) / log X, for the primes p at
    which np.log and math.log disagree."""

    X = 10**6

    @pytest.fixture(scope="class")
    def primes(self):
        ps = primes_in(2, 1_500_000)
        logs = np.log(np.array(ps, dtype=np.float64)).tolist()
        # found on one machine; others may differ elsewhere or nowhere
        return sorted({p for p, v in zip(ps, logs) if v != math.log(p)}
                      | {285343, 287549, 351497})

    @pytest.mark.parametrize("shape", ["point-first", "point-second", "upper", "lower"])
    def test_count_matches_scalar_reference(self, primes, shape):
        logX = math.log(self.X)
        for p in primes:
            e = math.log(p) / logX
            intervals = {"point-first": [(e, e), (0.0, 1.1)],
                         "point-second": [(0.0, 1.1), (e, e)],
                         "upper": [(0.0, e), (0.0, e)],
                         "lower": [(e, 1.1), (0.0, 1.1)]}[shape]
            rows = np.array([[2, p], [p, p], [p, 1_299_709], [3, 1_299_709]])
            count = experiments._count_ordered_tuples(rows, intervals, logX)
            assert count == scalar_ordered_tuples(rows, intervals, logX) > 0


class TestTypeII:
    def test_impossible_polytope(self):
        spec = PolytopeSpec.make([(0.9, 0.99), (0.9, 0.99)])
        rep = typeii_density_check(spec, 10**5, 0.5)
        assert rep.observed == 0 and rep.predicted == 0.0

    def test_eta_linearity(self):
        spec = PolytopeSpec.make([(0.4, 0.5), (0.3, 0.7)])
        r1 = typeii_density_check(spec, 10**5, 0.5)
        r2 = typeii_density_check(spec, 10**5, 0.25)
        assert r1.predicted == pytest.approx(2 * r2.predicted, rel=1e-9)
        assert abs(r2.observed / max(r2.predicted, 1) - 1) < 0.3

    @pytest.mark.parametrize("X, eta", [(10**5, -0.5), (10**5, 0.0), (1, 0.5), (0, 0.5)])
    def test_meaningless_window_rejected(self, X, eta):
        spec = PolytopeSpec.make([(0.4, 0.5), (0.3, 0.7)])
        with pytest.raises(ValueError, match="X >= 2 and eta > 0"):
            typeii_density_check(spec, X, eta)

    @pytest.mark.parametrize("intervals", [
        [(0.4, 0.5), (0.3, 0.7)], [(0.2, 0.45), (0.2, 0.45), (0.2, 0.45)]])
    def test_blocked_window_matches_one_block(self, intervals, monkeypatch):
        spec = PolytopeSpec.make(intervals)
        whole = typeii_density_check(spec, 10**4, 0.5)
        lo, hi = whole.details["window"]
        assert hi - lo + 1 < experiments.TYPEII_BLOCK  # one block by default
        monkeypatch.setattr(experiments, "TYPEII_BLOCK", 97)
        assert (hi - lo + 1) % 97
        blocked = typeii_density_check(spec, 10**4, 0.5)
        assert whole.observed > 0
        assert blocked == whole

    def test_within_tolerance_at_1e6(self):
        spec = PolytopeSpec.make([(0.4, 0.5), (0.3, 0.7)])
        rep = typeii_density_check(spec, 10**6, 0.5, ctx=CTX3)
        assert abs(rep.ratio - 1) < 0.15
        assert "ideal_level" in rep.details


def ideal_window_oracle(spec, X: int, eta: float, ctx) -> int:
    """The l = 2 ideal-level pair count slot by slot: one norm table for the
    first factor up to ceil(X^min(b1, 1)) + 1, another for the second up to
    hi / max(X^a1, 2) + 1, and a searchsorted pair per first-factor slot."""
    lo, hi = X, int(X * (1 + eta))
    (a1, b1), (a2, b2) = spec.intervals
    max_first = int(math.ceil(X ** min(b1, 1.0))) + 1
    firsts = [(q, c) for q, _, _, c in _prime_ideal_norm_table(ctx, max_first)
              if X**a1 <= q <= X**b1]
    slots2 = _prime_ideal_norm_table(ctx, int(hi / max(X**a1, 2)) + 1)
    norms2 = np.array([q for q, _, _, _ in slots2], dtype=np.float64)
    cum = np.concatenate([[0], np.cumsum(np.array([c for *_, c in slots2], dtype=np.int64))])
    observed = 0
    for q, c in firsts:
        lo2, hi2 = max(lo / q, X**a2), min(hi / q, X**b2)
        if hi2 >= lo2:
            i = np.searchsorted(norms2, lo2, side="left")
            j = np.searchsorted(norms2, hi2, side="right")
            observed += c * int(cum[j] - cum[i])
    return observed


class TestIdealWindowOracle:
    """_ideal_window_count (one norm table, one vectorized searchsorted pair)
    against the per-slot loop over two tables."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(SIEVE_FIELDS + [CTX4, make_context([3, -3, 0, 0, 0, 0, 0, 0], 1)]),
           st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 0.6)), min_size=2, max_size=2),
           st.integers(2, 30_000), st.floats(0.01, 3.0))
    @example(CTX3, [(0.4, 0.1), (0.3, 0.4)], 10**4, 0.5)
    @example(CTX3, [(0.6, 0.6), (0.05, 0.1)], 5_000, 2.5)  # b1 > 1: X^b1 > max_first
    def test_matches_per_slot_loop(self, ctx, widths, X, eta):
        spec = PolytopeSpec.make([(a, a + w) for a, w in widths])
        got = experiments._ideal_window_count(spec, X, eta, ctx)["observed_ordered_pairs"]
        assert got == ideal_window_oracle(spec, X, eta, ctx)


class TestDivisorSum:
    def test_single_point_prime_norm(self):
        rep = divisor_sum_check(1, 1, CTX3)
        assert rep.observed == 2  # N(1,1) = 3, tau = 2

    def test_e0_cardinality(self):
        rep = divisor_sum_check(13, 0, CTX3)
        assert rep.observed == 169

    def test_tau_matches_factorize_oracle(self):
        rep = divisor_sum_check(12, 1, CTX3)
        oracle = sum(tau_oracle(oracle_norm((a, b), CTX3))
                     for a in range(1, 13) for b in range(1, 13))
        assert rep.observed == oracle

    def test_box_dimension_other_than_two_is_bad_input(self):
        with pytest.raises(ValidationError, match="n - k = 2"):
            divisor_sum_check(4, 1, make_context([-2, 0, 0, 0], 1))

    @pytest.mark.parametrize("e", [-1, 3])
    def test_exponent_outside_0_1_2_is_bad_input(self, e):
        with pytest.raises(ValidationError, match="e must be"):
            divisor_sum_check(4, e, CTX3)

    def test_int64_guard_boundary(self):
        # x^6 - 2, k = 4: |N| <= 3 X^6, which reaches 2^62 between 1074 and 1075
        ctx = make_context([-2, 0, 0, 0, 0, 0], 4)
        assert 3 * 1074**6 < 2**62 <= 3 * 1075**6
        with pytest.raises(BudgetExceeded):
            divisor_sum_check(1075, 0, ctx)
        assert divisor_sum_check(1074, 0, ctx).observed == 1074**2

    def test_skip_reasons_partition_the_skipped_points(self):
        d = divisor_sum_check(48, 1, CTX3).details
        by_reason = d["points_skipped_by_reason"]
        assert list(by_reason) == ["bad_prime", "semiprime_leftover",
                                   "unresolved_valuation"]
        assert sum(by_reason.values()) == d["points_skipped_bad_or_unsplit"]
        assert by_reason["bad_prime"] > 0
        assert by_reason["unresolved_valuation"] == 0
        assert d["ideal_points"] + d["points_skipped_bad_or_unsplit"] == 48 * 48

    def test_info_log_sieve_and_ideal_tau_stages(self, caplog):
        with caplog.at_level(logging.INFO, logger="normform"):
            rep = divisor_sum_check(20, 1, CTX3)
        lines = [r.getMessage() for r in caplog.records if r.name == "normform"]
        assert [m.split(":")[0] for m in lines] == ["x-space sieve", "ideal tau"]
        assert all(re.search(r", \d+\.\d{3} s$", m) for m in lines)
        assert re.match(r"x-space sieve: 400 values, \d+ primes sieved", lines[0])
        by_reason = rep.details["points_skipped_by_reason"]
        resolved = int(re.search(r"ideal tau: (\d+) points resolved", lines[1]).group(1))
        assert 0 < resolved <= rep.details["ideal_points"]
        assert (f"skipped {by_reason['bad_prime']} bad prime, "
                f"{by_reason['semiprime_leftover']} semiprime leftover, "
                f"{by_reason['unresolved_valuation']} unresolved valuation") in lines[1]

    def test_reproduces_benchmark_reference(self):
        ref = REFERENCES["divisor_sum"]
        rep = divisor_sum_check(96, 1, CTX3)
        assert rep.observed == ref["surrogate_sum"]
        assert rep.details["ideal_sum"] == ref["ideal_sum"]
        assert rep.details["ideal_points"] == ref["ideal_points"]
        assert rep.details["points_skipped_bad_or_unsplit"] == ref["points_skipped"]

    def test_growth_ratio(self):
        # sum ~ X^2 (log X)^beta: beta from the ratio of the sums at two scales
        (x0, s0), (x1, s1) = [(X, divisor_sum_check(X, 1, CTX3).observed)
                              for X in (2**6, 2**8)]
        base = (x1 / x0) ** 2
        assert base <= s1 / s0 <= base * math.log(x1) ** 2
        beta = math.log(s1 / x1**2 / (s0 / x0**2)) / math.log(math.log(x1) / math.log(x0))
        assert 0 <= beta < 3


@functools.lru_cache(maxsize=None)
def oracle_factorization(x1: int, x2: int, ctx) -> dict:
    """primes.factorize of the resultant norm, shared across examples."""
    return factorize(oracle_norm((x1, x2), ctx))


def sieve_box(X: int, ctx):
    """|N| on the box [1, X]^2, the axis and the gcd(x1, x2) > 1 mask."""
    ax = np.arange(1, X + 1, dtype=np.int64)
    vals = np.abs(eval_norm_poly_grid(norm_form_polynomial(ctx), np.ix_(ax, ax)))
    return vals, np.gcd.outer(ax, ax) > 1


class TestTauSieve:
    @pytest.mark.parametrize("ctx", SIEVE_FIELDS, ids=lambda c: str(c.f_coeffs))
    @settings(max_examples=4, deadline=None, derandomize=True)
    # X >= 21: there x^3 - x - 1's bad prime 23 is among the sieved primes
    @given(X=st.integers(min_value=21, max_value=40))
    def test_tau_and_factors_match_factorize(self, ctx, X):
        vals, content = sieve_box(X, ctx)
        bad = set(bad_primes(ctx))
        tau_arr, bad_mask, semi_mask, facs, nprimes = _tau_sieve(
            vals, list(ctx.f_coeffs), bad, np.ones(vals.shape, dtype=bool))
        top = int(sieve_primes(10**4)[nprimes - 1])
        seen_gcd = seen_bad = False
        for i, j in itertools.product(range(X), repeat=2):
            want = oracle_factorization(i + 1, j + 1, ctx)
            got = facs.get((i, j), {})
            assert tau_arr[i, j] == math.prod(e + 1 for e in want.values())
            assert {q: e for q, e in want.items() if q in got} == \
                {q: e for q, e in got.items() if q > 0}
            semi = [q for q in got if q < 0]
            rest = {q: e for q, e in want.items() if q not in got}
            if semi:  # a leftover of two distinct primes, kept unsplit
                assert list(rest.values()) == [1, 1] and semi == [-math.prod(rest)]
            else:
                assert not rest
            # the leftover is the part of N above the sieve; a bad prime in a
            # semiprime leftover stays unseen, as the leftover is not split
            big = [q for q in want if q > top]
            assert semi_mask[i, j] == (len(big) == 2)
            assert bad_mask[i, j] == any(q in bad and (q <= top or len(big) < 2)
                                         for q in want)
            sieved = [q for q in got if 0 < q <= top]
            seen_gcd |= any((i + 1) % q == 0 and (j + 1) % q == 0 for q in sieved)
            seen_bad |= any(q in bad for q in sieved)
        assert seen_gcd and seen_bad
        # the factor map holds the points it is given, and only those
        *masks, part, _ = _tau_sieve(vals, list(ctx.f_coeffs), bad, content)
        assert sorted(part) == sorted(zip(*(a.tolist() for a in np.nonzero(content))))
        assert part == {ij: facs[ij] for ij in part}
        assert all((m == old).all() for m, old in zip(masks, (tau_arr, bad_mask, semi_mask)))


def ideal_level_oracle(X: int, e: int, ctx) -> dict:
    """The ideal level point by point: ideal_tau on every stored point, the
    first skip reason that applies counted, the unstored points (|N| = 1)
    counted as units with tau_K = 1."""
    vals, _ = sieve_box(X, ctx)
    facs = _tau_sieve(vals, list(ctx.f_coeffs), frozenset(),
                      np.ones(vals.shape, dtype=bool))[3]
    badset = set(bad_primes(ctx))
    total = points = 0
    skipped = {"bad_prime": 0, "semiprime_leftover": 0, "unresolved_valuation": 0}
    for (i, j), fac in facs.items():
        if any(p in badset for p in fac):
            skipped["bad_prime"] += 1
            continue
        if any(p < 0 for p in fac):
            skipped["semiprime_leftover"] += 1
            continue
        ti = ideal_tau((i + 1, j + 1), ctx, fac)
        if ti is None:
            skipped["unresolved_valuation"] += 1
            continue
        total += ti**e
        points += 1
    units = X * X - len(facs)
    return {"ideal_sum": total + units, "ideal_points": points + units,
            "points_skipped_by_reason": skipped}


@st.composite
def n_minus_k_2_fields(draw, n):
    """A random monic f of degree n, irreducible mod some prime q < 50,
    hence over Q, with k = n - 2."""
    low = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    assume(any(degree_pattern_mod_p(low + [1], q) == ([n], True)
               for q in primes_in(2, 50)))
    return make_context(low, n - 2)


class TestIdealLevelOracle:
    """The sieve's coprime points and the ideal_tau loop over the points
    with a common factor give the report of the point-by-point loop."""

    @staticmethod
    def check(X, e, ctx):
        d = divisor_sum_check(X, e, ctx).details
        want = ideal_level_oracle(X, e, ctx)
        assert {k: d[k] for k in want} == want
        return want

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), X=st.integers(10, 40), e=st.sampled_from([1, 2]))
    @pytest.mark.parametrize("n", [3, 4], ids=["cubic_k1", "quartic_k2"])
    def test_matches_point_by_point_loop(self, n, data, X, e):
        self.check(X, e, data.draw(n_minus_k_2_fields(n)))

    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("X", [3, 7, 12, 20])
    def test_bad_prime_in_leftover(self, X, e):
        # x^3 - x - 1 has the one bad prime 23, not sieved below X = 21
        ctx = SIEVE_FIELDS[1]
        assert bad_primes(ctx) == [23]
        vals, _ = sieve_box(X, ctx)
        assert sieve_primes(10**4)[_tau_sieve(vals, list(ctx.f_coeffs), set(), None)[4] - 1] < 23
        assert self.check(X, e, ctx)["points_skipped_by_reason"]["bad_prime"] > 0

    def test_content_points_alone_reach_ideal_tau(self, monkeypatch):
        calls = []
        real = experiments.ideal_tau
        monkeypatch.setattr(experiments, "ideal_tau",
                            lambda x, *a: calls.append(x) or real(x, *a))
        d = divisor_sum_check(96, 1, CTX3).details
        assert len(calls) == 261 and all(math.gcd(*x) > 1 for x in calls)
        assert d["ideal_points"] == REFERENCES["divisor_sum"]["ideal_points"]


def mask_hits(f: list[int], p: int, X: int) -> np.ndarray:
    """The flat positions in [1, X]^2 where p divides N, read from a q x q
    table of residue classes gathered over the whole box: the oracle for
    the divisor grid's progressions."""
    q = min(p, X + 1)  # residues of [1, X] lie below q
    t = np.arange(q, dtype=np.int64)
    zero = np.zeros((q, q), dtype=bool)
    zero[0, 0] = True
    for r in roots_mod_p(f, p):
        a = (-r * t) % p
        zero[a[a < q], t[a < q]] = True
    res = np.arange(1, X + 1) % p
    return np.flatnonzero(zero[np.ix_(res, res)])


class TestGridProgressions:
    """Every sieved prime's progressions hit each point of the mask oracle
    once, and no other point."""

    @staticmethod
    def check(ctx, X) -> set[str]:
        """Compare each prime's hits; return which of p > X, a bad p and a
        root 0 (p | f(0)) the sieved primes met."""
        hits, real = [], experiments._progressions

        def spy(*args):
            out = real(*args)
            hits.append(out[0])
            return out
        vals, _ = sieve_box(X, ctx)
        f = list(ctx.f_coeffs)
        with mock.patch.object(experiments, "_progressions", spy):
            ps = sieve_primes(10**4)[:_tau_sieve(vals, f, set(), None)[4]].tolist()
        assert len(hits) == len(ps)
        for p, at in zip(ps, hits):
            want = mask_hits(f, p, X)
            assert np.array_equal(np.sort(at), want), p
            assert np.array_equal(want, np.flatnonzero(vals.ravel() % p == 0)), p
        met = {"p > X": ps[-1] > X, "bad p": bool(set(bad_primes(ctx)) & set(ps)),
               "root 0": any(f[0] % p == 0 for p in ps)}
        return {k for k, v in met.items() if v}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), X=st.integers(1, 60))
    @pytest.mark.parametrize("n", [3, 4], ids=["cubic_k1", "quartic_k2"])
    def test_hits_match_mask_oracle(self, n, data, X):
        self.check(data.draw(n_minus_k_2_fields(n)), X)

    @pytest.mark.parametrize("coeffs, k, X", [
        ([-2, 0, 0], 1, 1), ([-2, 0, 0], 1, 5), ([3, 1, 0], 1, 40),
        ([-2, 0, 0, 0], 2, 60), ([6, 3, -3, 0], 2, 33)])
    def test_cases_met(self, coeffs, k, X):
        assert self.check(make_context(coeffs, k), X) == {"p > X", "bad p", "root 0"}
