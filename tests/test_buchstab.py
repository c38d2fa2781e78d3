"""Exactness of the Buchstab identity on integer sets."""

import random
import time

from normform.buchstab import _lpf, buchstab_report, buchstab_residual
from normform.fields import make_context, norm_form
from normform.primes import factorize, primes_in


def test_interval_example():
    assert buchstab_residual(range(100, 201), 5, 13) == 0


def test_norm_value_sets():
    ctx = make_context([-2, 0, 0], 1)
    vals = [norm_form((a, b), ctx) for a in range(1, 20) for b in range(1, 20)]
    assert buchstab_residual(vals, 10, 100) == 0


def test_equal_cutoffs_empty_sum():
    rep = buchstab_report(range(50, 120), 7, 7)
    assert rep.middle_sum == 0 and rep.residual == 0


def test_prime_powers_handled():
    # elements like p^2 stress the >= convention in the subtracted terms
    vals = [4, 8, 9, 27, 25, 125, 49, 6, 12, 30, 210, 121, 169]
    for z1, z2 in ((1, 5), (2, 7), (3, 11), (5, 13)):
        assert buchstab_residual(vals, z1, z2) == 0


def test_randomized_instances():
    rng = random.Random(404)
    for _ in range(30):
        vals = [rng.randint(2, 10**6) for _ in range(80)]
        z1 = rng.choice([2, 3, 5, 10, 30])
        z2 = z1 + rng.choice([0, 5, 20, 100])
        assert buchstab_residual(vals, z1, z2) == 0


def test_ones_counted_everywhere():
    assert buchstab_residual([1, 1, 7, 30], 2, 10) == 0


def middle_sum_oracle(values, z1, z2) -> int:
    """The middle sum prime by prime: every prime in (z1, z2] against
    every value."""
    facs = [factorize(abs(v)) for v in values]
    middle = 0
    for p in primes_in(max(2, int(z1) + 1), int(z2)):
        for f in facs:
            if p in f:
                g = dict(f)
                if g[p] == 1:
                    del g[p]
                else:
                    g[p] -= 1
                if _lpf(g) >= p:
                    middle += 1
    return middle


def test_middle_sum_matches_prime_by_prime_loop():
    rng = random.Random(29)
    for _ in range(40):
        vals = [rng.choice([1, rng.randint(2, 10**5), rng.randint(2, 60) ** rng.randint(1, 4)])
                for _ in range(60)]
        z1 = rng.choice([-3.5, 0, 1, 2, 2.5, 7, 10.9, 30])
        z2 = z1 + rng.choice([0, 0.4, 5, 20.5, 300])
        assert buchstab_report(vals, z1, z2).middle_sum == middle_sum_oracle(vals, z1, z2)


def test_top_cutoff_costs_no_sieve():
    # z2 at its cap, 10^8: the sieve up to z2 alone would hold about 100 MB
    vals = list(range(10**8 - 1000, 10**8 + 1000))
    t0 = time.perf_counter()
    rep = buchstab_report(vals, 10**4, 10**8)
    assert time.perf_counter() - t0 < 1
    assert rep.residual == 0 and rep.middle_sum > 0
