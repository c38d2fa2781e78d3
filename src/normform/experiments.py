"""Desk-scale experiments: prime counts of the incomplete norm form against
the predicted main term, Type I discrepancies, Type II density checks and
divisor sums.

Everything is deterministic given (config, seed, threads): Monte Carlo
streams are counter-based per slab, and box enumeration reduces slab
counts with an order-independent integer sum.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.random import Generator, Philox

from .errors import BudgetExceeded, ValidationError
from .fields import FieldSpec, eval_norm_poly_grid, norm_form_polynomial
from .integrals import PolytopeSpec, polytope_integral
from .localdata import (
    _prime_ideal_norm_table,
    bad_primes,
    degree1_prime_ideals,
    ideal_tau,
)
from .primes import (
    BATCH_HI,
    WindowFactors,
    _exponents,
    _progressions,
    certify,
    prime_mask,
    primes_in,
    sieve_primes,
    trial_division,
    window_factorizations,
)
from .series import P_CUT_MIN, SeriesEstimate, singular_series
from .splitting import roots_mod_p

log = logging.getLogger("normform")

# stratified Monte Carlo of log_norm_integral: slab count, least samples per slab
MC_SLABS = 64
MC_MIN_PER_SLAB = 256


@dataclass
class ExperimentConfig:
    """Scale and reproducibility knobs for the experiment pipelines."""

    ctx: FieldSpec
    X: int
    box: tuple[tuple[int, int], ...] = ()  # default [1, X]^(n-k)
    eta1: float = 0.1
    eta2: float = 0.05
    p_cut: int = 10_000
    seed: int = 0
    threads: int = 1
    point_budget: int = 10**7
    mc_samples: int = 200_000

    def __post_init__(self):
        if self.X < 2:
            raise ValidationError("X must be at least 2")
        if not self.box:
            self.box = tuple((1, self.X) for _ in range(self.ctx.m))
        if len(self.box) != self.ctx.m:
            raise ValidationError("box dimension must equal n - k")
        if not (0 < self.eta1 < 1 and 0 < self.eta2 < 1):
            raise ValidationError("eta parameters must lie in (0, 1)")
        if self.mc_samples < MC_SLABS * MC_MIN_PER_SLAB:
            raise ValidationError(f"mc_samples must be at least "
                                  f"{MC_SLABS * MC_MIN_PER_SLAB}, got {self.mc_samples}")
        if any(abs(c) >= 2**62 for b in self.box for c in b):  # the int64 grids' range
            raise BudgetExceeded(f"box {[list(b) for b in self.box]} has a coordinate "
                                 f"of magnitude 2^62 or more")

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ctx"}
        return {**d, "field": self.ctx.to_json_dict(), "box": [list(b) for b in self.box]}


@dataclass
class RunReport:
    """Observed/predicted comparison with provenance of every constant."""

    kind: str
    observed: int
    predicted: float
    pred_err: float
    ratio: float
    config: dict
    details: dict = field(default_factory=dict)
    slabs: list = field(default_factory=list)


# --- observed side -------------------------------------------------------------


def _box_grid_eval(cfg: ExperimentConfig, lo1: int, hi1: int) -> np.ndarray:
    """Norm values on box slab x1 in [lo1, hi1], int64, vectorized."""
    ranges = [(lo1, hi1), *cfg.box[1:]]
    axes = np.ix_(*[np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges])
    return eval_norm_poly_grid(norm_form_polynomial(cfg.ctx), axes)


def _slab_survivors(vals: np.ndarray):
    """The first phase of the box count, on one slab's norm values.

    Returns (# N >= 2 prime, # N <= -2 with |N| prime, # removed by trial
    division, survivors, their signs N > 0): the counts cover what
    primes.trial_division decides (|N| <= BATCH_LO, or with a prime factor
    <= BATCH_LO), and the survivors' |N| are left for primes.certify.
    """
    flat = vals.ravel()
    mask, idx, v, removed = trial_division(np.abs(flat))
    return (int(np.count_nonzero(mask & (flat > 0))),
            int(np.count_nonzero(mask & (flat < 0))), removed, v, flat[idx] > 0)


def observed_prime_count(cfg: ExperimentConfig):
    """Exact prime counts of N_K over the box.

    Returns (positive-prime count, negative-|prime| count, slab rows).
    Every count is certified (primes.certify).  Slabs partition the first
    coordinate and are the rows of the report, min(max(4 threads, 8), box
    side) of them: the rows depend on threads, the totals do not.  Each
    slab evaluates its grid and trial-divides it (_slab_survivors); then
    the survivors of every slab are certified together, the batch test in
    max(threads, ...) parts on the same pool, and each verdict is counted
    back to its slab.
    """
    npoints = math.prod(hi - lo + 1 for lo, hi in cfg.box)
    if npoints > cfg.point_budget:
        raise BudgetExceeded(f"{npoints} box points exceed budget {cfg.point_budget}")
    norm_form_polynomial(cfg.ctx)  # built once, before the workers share it
    lo1, hi1 = cfg.box[0]
    nslabs = min(max(cfg.threads * 4, 8), hi1 - lo1 + 1)
    edges = np.linspace(lo1, hi1 + 1, nslabs + 1, dtype=np.int64)

    def work(i: int):
        a, b = int(edges[i]), int(edges[i + 1]) - 1
        t0 = time.perf_counter()
        vals = _box_grid_eval(cfg, a, b) if a <= b else np.zeros(0, dtype=np.int64)
        t1 = time.perf_counter()
        found = _slab_survivors(vals)
        return (a, b, vals.size, t1 - t0, time.perf_counter() - t1, *found)

    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        run = ex.map if cfg.threads > 1 else map
        (lo, hi, size, t_eval, t_trial, pos0, neg0, removed, v,
         positive) = zip(*run(work, range(nslabs)))
        bounds = np.cumsum([s.size for s in v])[:-1]  # slab i's survivors end here
        v, positive = np.concatenate(v), np.concatenate(positive)
        t0 = time.perf_counter()
        prime, parts = certify(v, cfg.threads, run)
        t_cert = time.perf_counter() - t0
    pos = [c + int(np.count_nonzero(h)) for c, h in zip(pos0, np.split(prime & positive, bounds))]
    neg = [c + int(np.count_nonzero(h)) for c, h in zip(neg0, np.split(prime & ~positive, bounds))]
    batch = int(np.count_nonzero(v < BATCH_HI))
    log.info("box evaluation: %.3f s summed over %d slabs, %d values",
             sum(t_eval), nslabs, npoints)
    log.info("primality: %.3f s trial division summed over %d slabs, %.3f s "
             "certification in %d batches; %d values, %d removed by the "
             "small-prime sieve, %d batch-tested, %d scalar-tested",
             sum(t_trial), nslabs, t_cert, parts, npoints, sum(removed), batch,
             v.size - batch)
    slab_rows = [{"slab": i, "x1_lo": lo[i], "x1_hi": hi[i], "points": size[i],
                  "primes_pos": pos[i], "primes_neg": neg[i]} for i in range(nslabs)]
    return sum(pos), sum(neg), slab_rows


# --- predicted side -------------------------------------------------------------


def _poly_values(poly: dict, pts: np.ndarray) -> np.ndarray:
    """Float values of poly at the rows of pts, summed term by term in key order.

    The columns of pts are copied out contiguous first.  Each power
    x_var ** e is computed once and shared by the monomials that use it;
    every term is still c * x_1^e_1 * ... formed left to right, in place,
    so the floats equal those of a per-monomial evaluation (c * x^e and
    x^e * c are the same IEEE product).
    """
    cols = pts.T.copy()
    powers: dict[tuple[int, int], np.ndarray] = {}
    vals = np.zeros(pts.shape[0])
    for ex, c in poly.items():
        term = None
        for var, e in enumerate(ex):
            if e:
                if (var, e) not in powers:
                    powers[var, e] = cols[var] ** e
                if term is None:
                    term = powers[var, e] * float(c)
                else:
                    term *= powers[var, e]
        vals += float(c) if term is None else term
    return vals


def log_norm_integral(cfg: ExperimentConfig) -> tuple[float, float]:
    """Integral of 1/log N_K(t) over the box restricted to N_K >= 2.

    Product Gauss-Legendre when n-k <= 2 (error from grid refinement),
    stratified seeded Monte Carlo otherwise (reported standard error).
    """
    poly = norm_form_polynomial(cfg.ctx)
    m = cfg.ctx.m

    def f(pts: np.ndarray) -> np.ndarray:
        vals = _poly_values(poly, pts)
        out = np.zeros(pts.shape[0])
        ok = vals >= 2.0
        out[ok] = 1.0 / np.log(vals[ok])
        return out

    vol = math.prod(hi - lo for lo, hi in cfg.box)
    if m <= 2:
        def gl(nodes: int) -> float:
            xs, ws = np.polynomial.legendre.leggauss(nodes)
            axes = []
            weights = []
            for lo, hi in cfg.box:
                axes.append(0.5 * (hi - lo) * xs + 0.5 * (hi + lo))
                weights.append(0.5 * (hi - lo) * ws)
            if m == 1:
                pts = axes[0][:, None]
                return float((f(pts) * weights[0]).sum())
            G0, G1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            W = np.outer(weights[0], weights[1])
            pts = np.stack([G0.ravel(), G1.ravel()], axis=1)
            return float((f(pts) * W.ravel()).sum())

        coarse, fine = gl(96), gl(192)
        return fine, abs(fine - coarse) + 1e-12 * abs(fine)
    # stratified MC over first-coordinate slabs
    nslabs = MC_SLABS
    lo1, hi1 = cfg.box[0]
    edges = np.linspace(lo1, hi1, nslabs + 1)
    per = cfg.mc_samples // nslabs
    total = 0.0
    var_acc = 0.0
    for s in range(nslabs):
        rng = Generator(Philox(key=cfg.seed, counter=[0, 0, 0, s]))
        pts = rng.random((per, m))
        pts[:, 0] = edges[s] + pts[:, 0] * (edges[s + 1] - edges[s])
        for j, (lo, hi) in enumerate(cfg.box[1:], start=1):
            pts[:, j] = lo + pts[:, j] * (hi - lo)
        fv = f(pts)
        svol = (edges[s + 1] - edges[s]) * math.prod(
            hi - lo for lo, hi in cfg.box[1:])
        total += fv.mean() * svol
        var_acc += fv.var(ddof=1) / per * svol**2
    return total, math.sqrt(var_acc)


def predicted_main_term(cfg: ExperimentConfig) -> tuple[float, float, SeriesEstimate]:
    """S(p_cut) times the box integral of 1/log N_K, with combined error bar."""
    t0 = time.perf_counter()
    S = singular_series(cfg.ctx, cfg.p_cut)
    t1 = time.perf_counter()
    integral, int_err = log_norm_integral(cfg)
    t2 = time.perf_counter()
    log.info("singular series: %.3f s, p_cut %d", t1 - t0, cfg.p_cut)
    log.info("log-integral: %.3f s", t2 - t1)
    value = S.value * integral
    err = S.tail_bound * integral + S.value * int_err
    return value, err, S


def _claim_regime(n: int, k: int, pure: bool) -> str:
    """Which of the paper's claims covers (n, k).

    The asymptotic holds when k = 0 or n >= 4k; the lower bound when
    7n >= 22k, proved for pure fields Q(theta^(1/n)) only.
    """
    if k == 0 or n >= 4 * k:
        return "asymptotic"
    if 7 * n >= 22 * k and pure:
        return "lower_bound"
    return "outside_theory"


def _ratio(observed: int, predicted: float) -> float:
    """observed / predicted, 0.0 when both are 0, and inf for a positive
    count against a predicted 0, which has no ratio (the CLI exits 2)."""
    if predicted > 0:
        return observed / predicted
    return 0.0 if observed == 0 else math.inf


# the constant reported with the paper's lower bound (regime "lower_bound")
LOWER_BOUND_C0 = 0.5


def theorem_check(cfg: ExperimentConfig) -> RunReport:
    """Observed vs predicted prime counts; flags the applicable claim regime."""
    if cfg.p_cut < P_CUT_MIN:  # the series' own floor, checked before the box is counted
        raise ValidationError(f"p_cut must be at least {P_CUT_MIN}")
    pos, neg, slabs = observed_prime_count(cfg)
    pred, err, S = predicted_main_term(cfg)
    ratio = _ratio(pos, pred)
    regime = _claim_regime(cfg.ctx.n, cfg.ctx.k, cfg.ctx.pure_theta is not None)
    details = {
        "observed_negative_norm_primes": neg,
        "primality_certified": True,  # certify is exact on int64
        "sseries": S.to_json_dict(),
        "integral_error_included": True,
        "regime": regime,
        "lower_bound_c0": LOWER_BOUND_C0,
        "negative_norms_kept_visible": True,
    }
    return RunReport(
        kind="theorem_check",
        observed=pos,
        predicted=pred,
        pred_err=err,
        ratio=ratio,
        config=cfg.to_json_dict(),
        details=details,
        slabs=slabs,
    )


# --- Type I discrepancy ----------------------------------------------------------


def _congruence_count(box, r: int, p: int) -> int:
    """#{x in box : sum x_i r^(i-1) = 0 mod p}, exact, vectorized.

    At each point of the other axes x_1 must lie in the one class
    need = -sum_(i>1) x_i r^(i-1) mod p, which holds
    floor((hi_1 - need) / p) - floor((lo_1 - 1 - need) / p) values of
    [lo_1, hi_1].  Every axis is reduced mod p first, so each product
    stays below p^2.
    """
    (lo1, hi1), need, rpow = box[0], np.zeros(1, dtype=np.int64), r % p
    for lo, hi in box[1:]:
        axis = np.arange(lo, hi + 1, dtype=np.int64) % p
        need = (need[:, None] - axis * rpow).ravel() % p
        rpow = rpow * r % p
    return int(((hi1 - need) // p - (lo1 - 1 - need) // p).sum())


def typei_discrepancy(cfg: ExperimentConfig, d_lo: int, d_hi: int) -> RunReport:
    """Aggregated |#A_p - #A/p| over degree-1 prime ideals in dyadic blocks.

    Reference shape per block: X^(n-k-1) D^(1/(n-k)) + D with X the box
    side; the fitted constant is the geometric mean of block ratios and
    each block is compared against it.
    """
    ctx = cfg.ctx
    m = ctx.m
    total_points = math.prod(hi - lo + 1 for lo, hi in cfg.box)
    if total_points > cfg.point_budget:
        raise BudgetExceeded(f"{total_points} box points exceed budget {cfg.point_budget}")
    bad = set(bad_primes(ctx))
    side = max(hi - lo + 1 for lo, hi in cfg.box)
    other = total_points // (cfg.box[0][1] - cfg.box[0][0] + 1)
    blocks = []
    D = d_lo
    while D <= d_hi:
        lo_p, hi_p = D, min(2 * D - 1, d_hi * 2 - 1)
        agg = 0.0
        nterms = 0
        bound_ok = True
        for p in primes_in(lo_p, hi_p):
            if p in bad:
                continue
            for pi in degree1_prime_ideals(p, ctx):
                cnt = _congruence_count(cfg.box, pi.label, p)
                diff = abs(cnt - total_points / p)
                # exact combinatorial bound: one wrap slack per fibre
                if diff > other + 1e-9:
                    bound_ok = False
                agg += diff
                nterms += 1
        ref = side ** (m - 1) * D ** (1.0 / m) + D
        blocks.append({"D": D, "terms": nterms, "aggregate": agg,
                       "reference": ref, "ratio": agg / ref,
                       "per_term_bound_ok": bound_ok})
        D *= 2
    ratios = [b["ratio"] for b in blocks if b["terms"] > 0]
    log_sum = 0.0
    for r in ratios:  # left to right: sum() compensates floats on 3.12+
        log_sum += math.log(max(r, 1e-300))
    fitted = math.exp(log_sum / len(ratios)) if ratios else 0.0
    worst = max((b["ratio"] / fitted for b in blocks if b["terms"] > 0),
                default=0.0)
    details = {
        "blocks": blocks,
        "fitted_constant": fitted,
        "max_block_over_fitted": worst,
        "bad_primes_excluded": sorted(bad),
        "rho_on_degree_one": 1,
    }
    return RunReport(
        kind="typei_discrepancy",
        observed=sum(b["terms"] for b in blocks),
        predicted=fitted,
        pred_err=0.0,
        ratio=worst,
        config=cfg.to_json_dict(),
        details=details,
    )


# --- Type II density --------------------------------------------------------------


# largest X at which the l = 2 ideal-level window count runs
IDEAL_WINDOW_BUDGET = 2 * 10**6
# integers factored at a time in the Type II window
TYPEII_BLOCK = 2**16
# longest Type II window X * eta, in integers factored
TYPEII_WINDOW_CAP = 10**8


def typeii_density_check(spec: PolytopeSpec, X: int, eta: float,
                         ctx: FieldSpec | None = None) -> RunReport:
    """Window count of integers factoring inside the polytope vs prediction.

    Observed: ordered tuples (p_1, ..., p_l) with product in
    [X, X(1+eta)] and (log p_i / log X) in the polytope; rational-integer
    surrogate for the ideal count, labelled as such.  When ctx is given
    and X <= IDEAL_WINDOW_BUDGET, the l = 2 ideal-level analogue runs too.
    The window is factored TYPEII_BLOCK integers at a time.
    The window needs X >= 2 (log X > 0) and eta > 0 (ValidationError otherwise).
    """
    if not (X >= 2 and eta > 0):
        raise ValidationError(f"Type II window needs X >= 2 and eta > 0, "
                              f"got X={X}, eta={eta}")
    if X > 10**8:
        raise BudgetExceeded("X exceeds 1e8")
    if X * eta > TYPEII_WINDOW_CAP:
        raise BudgetExceeded(f"window X * eta = {X * eta:.6g} exceeds {TYPEII_WINDOW_CAP}")
    if spec.ell > 3:
        raise BudgetExceeded("l > 3 not supported at desk scale")
    lo, hi = X, int(X * (1 + eta))
    logX = math.log(X)
    intervals = spec.intervals
    ell = spec.ell
    t_win = time.perf_counter()
    observed = factored = rows_seen = 0
    for start in range(lo, hi + 1, TYPEII_BLOCK):
        facs = window_factorizations(start, min(start + TYPEII_BLOCK, hi + 1))
        factored += len(facs)
        rows = _omega_rows(facs, ell)
        del facs  # free this block's table before the next block is factored
        rows_seen += len(rows)
        observed += _count_ordered_tuples(rows, intervals, logX)
    log.info("Type II window: %d integers factored, %d with Omega = %d, "
             "%d ordered tuples counted, %.3f s",
             factored, rows_seen, ell, observed, time.perf_counter() - t_win)
    predicted = eta * X * polytope_integral(spec, 1.0) / logX
    details = {
        "surrogate": "rational integers (not ideals)",
        "window": [lo, hi],
        "intervals": [list(iv) for iv in intervals],
    }
    if ctx is not None and ell == 2 and X <= IDEAL_WINDOW_BUDGET:
        details["ideal_level"] = _ideal_window_count(spec, X, eta, ctx)
    ratio = _ratio(observed, predicted)
    return RunReport(
        kind="typeii_density",
        observed=observed,
        predicted=predicted,
        pred_err=0.0,
        ratio=ratio,
        config={"X": X, "eta": eta, "intervals": [list(iv) for iv in intervals]},
        details=details,
    )


def _omega_rows(facs: WindowFactors, ell: int) -> np.ndarray:
    """(S, ell) int64 array of the primes, with multiplicity and ascending,
    of the integers in the window table facs that have Omega = ell.

    Reads the table in sieve order and puts only the entries it keeps in
    position order, so the table's full position order is never built.
    """
    pos, primes, exps = facs.sieved
    keep = facs.by_position(np.flatnonzero((facs.omega() == ell)[pos]))
    return np.repeat(primes[keep], exps[keep]).reshape(-1, ell)


def _count_ordered_tuples(rows: np.ndarray, intervals, logX: float) -> int:
    """Distinct orderings (p_1, ..., p_l) of the rows' entries with
    a_i <= log p_i / log X <= b_i for (a_i, b_i) = intervals[i].

    rows is sorted along each row.  Each index permutation is tested on
    all rows at once; where sorted entries are equal they must keep their
    order, so each distinct tuple is counted once.
    """
    if not len(rows):
        return 0
    e = np.log(rows) / logX
    # the box edges are tested on the scalar math.log, which np.log can miss
    # by an ulp: take it again wherever an entry lies that close to an edge
    near = np.zeros(e.shape, dtype=bool)
    for edge in {x for iv in intervals for x in iv}:
        near |= np.abs(e - edge) <= 1e-12
    e[near] = [math.log(p) / logX for p in rows[near].tolist()]
    inside = [(a <= e) & (e <= b) for a, b in intervals]  # inside[i][s, j]
    ties = rows[:, 1:] == rows[:, :-1]
    total = 0
    for perm in itertools.permutations(range(rows.shape[1])):
        # position i holds sorted entry perm[i]
        ok = np.logical_and.reduce([inside[i][:, j] for i, j in enumerate(perm)])
        for j in range(rows.shape[1] - 1):
            if perm.index(j) > perm.index(j + 1):
                ok &= ~ties[:, j]
        total += int(np.count_nonzero(ok))
    return total


def _ideal_window_count(spec: PolytopeSpec, X: int, eta: float, ctx: FieldSpec) -> dict:
    """l = 2 ideal-level window count over good-support prime ideal pairs."""
    t0 = time.perf_counter()
    lo, hi = X, int(X * (1 + eta))
    (a1, b1), (a2, b2) = spec.intervals
    max_first = int(math.ceil(X ** min(b1, 1.0))) + 1
    # a second factor's norm is at most hi / q < hi2, as q >= max(X^a1, 2)
    hi2 = int(hi / max(X**a1, 2)) + 1
    slots = np.array(_prime_ideal_norm_table(ctx, max(max_first, hi2)),
                     dtype=np.int64).reshape(-1, 4)
    norms, counts = slots[:, 0].astype(np.float64), slots[:, 3]
    cum = np.concatenate([[0], np.cumsum(counts)])
    first = (X**a1 <= norms) & (norms <= min(X**b1, max_first))
    q = norms[first]
    i = np.searchsorted(norms, np.maximum(lo / q, X**a2), side="left")
    j = np.searchsorted(norms, np.minimum(hi / q, X**b2), side="right")
    observed = int((counts[first] * (cum[np.maximum(i, j)] - cum[i])).sum())  # j < i: empty
    log.info("Type II ideal level: %d ordered prime-ideal pairs, %.3f s",
             observed, time.perf_counter() - t0)
    # prediction at the ideal level carries the gamma-hat density squared-ish
    # correction; report the raw count next to the surrogate for comparison
    return {"observed_ordered_pairs": observed,
            "note": "good-support prime-ideal pairs, ordered; density differs "
                    "from the rational surrogate by the ideal-count constant"}


# --- divisor sums ------------------------------------------------------------------


def divisor_sum_check(X: int, e: int, ctx: FieldSpec,
                      budget: int = 2 * 10**7,
                      ideal_points_budget: int = 70_000) -> RunReport:
    """sum over the box [1, X]^(n-k) of tau(N_K(x))^e with growth diagnostics.

    n-k = 2.  tau of every |N| value comes from _tau_sieve, which
    generates the points each prime p divides from the roots of f mod p,
    one progression per root and column.  e = 0 returns X^2 after the int64 guard,
    checked at the corner (X, X) alone.  The exact ideal-level tau runs
    when the box is inside ideal_points_budget, skipping the points it
    cannot resolve, counted by reason.

    At the ideal level a point with gcd(x1, x2) = 1 takes tau_K(alpha) =
    tau(|N(alpha)|) straight from the sieve: a good p dividing N(alpha)
    does not divide x2 (else it divides x1), so alpha lies in the one
    prime (p, omega - r), r = -x1/x2 mod p, of degree 1, whose valuation
    is therefore v_p(N).  Only the points with a common factor, where
    every prime above p is a candidate, go through ideal_tau and its
    Hensel lifts.
    """
    if ctx.m != 2:
        raise ValidationError(f"divisor_sum_check supports n - k = 2 boxes, not {ctx.m}")
    if e not in (0, 1, 2):
        raise ValidationError(f"e must be 0, 1 or 2, not {e!r}")
    if X * X > budget:
        raise BudgetExceeded(f"X^2 = {X * X} exceeds budget {budget}")
    poly = norm_form_polynomial(ctx)
    if e == 0:
        eval_norm_poly_grid(poly, ([X], [X]))  # the guard reads max|x| only
        return RunReport(kind="divisor_sum", observed=X * X,
                         predicted=float(X * X), pred_err=0.0, ratio=1.0,
                         config={"X": X, "e": e, "field": ctx.to_json_dict()},
                         details={})
    ax = np.arange(1, X + 1, dtype=np.int64)
    vals = np.abs(eval_norm_poly_grid(poly, np.ix_(ax, ax)))
    with_factors = X * X <= ideal_points_budget
    badset = set(bad_primes(ctx)) if with_factors else set()
    content = np.gcd.outer(ax, ax) > 1 if with_factors else None
    t1 = time.perf_counter()
    tau_int, bad, semi, fac_store, nprimes = _tau_sieve(
        vals, list(ctx.f_coeffs), badset, content)
    log.info("x-space sieve: %d values, %d primes sieved, %.3f s",
             vals.size, nprimes, time.perf_counter() - t1)
    tau_e = tau_int if e == 1 else tau_int * tau_int
    surrogate = int(tau_e.sum())
    details: dict = {"surrogate_sum_tau_int_pow_e": surrogate}
    if with_factors:
        t1 = time.perf_counter()
        eligible = ~(bad | semi)
        coprime = eligible & ~content  # the units too, with tau 1
        ideal_total = int(tau_e[coprime].sum())
        from_sieve = int(np.count_nonzero(coprime))
        by_ideal_tau = unresolved = 0
        for i, j in zip(*(a.tolist() for a in np.nonzero(eligible & content))):
            ti = ideal_tau((i + 1, j + 1), ctx, fac_store[i, j])
            if ti is None:
                unresolved += 1
                continue
            ideal_total += ti**e
            by_ideal_tau += 1
        ideal_points = from_sieve + by_ideal_tau
        # first reason that applies, in this order
        skipped = {"bad_prime": int(np.count_nonzero(bad)),
                   "semiprime_leftover": int(np.count_nonzero(semi & ~bad)),
                   "unresolved_valuation": unresolved}
        log.info("ideal tau: %d points resolved (%d from the sieve, %d by "
                 "ideal_tau), skipped %d bad prime, %d semiprime leftover, "
                 "%d unresolved valuation, %.3f s", ideal_points, from_sieve,
                 by_ideal_tau, *skipped.values(), time.perf_counter() - t1)
        details.update({
            "ideal_sum": ideal_total,
            "ideal_points": ideal_points,
            "points_skipped_bad_or_unsplit": sum(skipped.values()),
            "points_skipped_by_reason": skipped,
            "bad_primes": sorted(badset),
        })
    return RunReport(
        kind="divisor_sum",
        observed=surrogate,
        predicted=float(X * X),
        pred_err=0.0,
        ratio=surrogate / (X * X),
        config={"X": X, "e": e, "field": ctx.to_json_dict()},
        details=details,
    )


def _tau_sieve(vals: np.ndarray, f: list[int], bad_set: set[int],
               store: np.ndarray | None):
    """tau of every |N(x1, x2)| on the box [1, X]^2, sieved in x-space.

    vals[i, j] = |N((i + 1) + (j + 1) w)| with w a root of the monic f.  Since
    N(t + w) = (-1)^n f(-t), p divides N(x1 + x2 w) exactly when
    x1 + r x2 = 0 mod p for a root r of f mod p, or p divides x1 and x2,
    at bad p too.  Per prime, these classes are one progression in x1 per
    column, so p reads only the points it divides, and their exponents
    come from the Type II window's m % p^k tests, with no division.
    Primes up to max(vals)^(1/3) are sieved, so each leftover, |N| over
    its sieved prime powers, is 1, a prime, a prime square or a
    semiprime: enough for tau exactly.  All leftovers are classified at
    once, by one primes.prime_mask call and a vectorized square test.

    Returns (tau array, bad mask, semiprime mask, factor map, number of
    primes sieved), the arrays shaped like vals.  The bad mask marks the
    points that a sieved prime of bad_set divides or whose leftover, or
    its square root, is in bad_set; the semiprime mask marks the leftovers
    that are neither prime nor square.  The factor map {(i, j): {p: e}} is
    filled only at the points where the boolean array store is set (none
    when store is None); a semiprime leftover L is stored as {-L: 1},
    since tau does not need it split.
    """
    X = vals.shape[0]
    flat = vals.ravel()
    prod = np.ones(vals.size, dtype=np.int64)  # the sieved part of each |N|
    tau_int = np.ones(vals.size, dtype=np.int64)
    bad, semi = np.zeros((2, vals.size), dtype=bool)
    keep = None if store is None else store.ravel()
    fac_store: dict[tuple[int, int], dict[int, int]] = {}
    vmax = int(vals.max())
    plimit = int(round(vmax ** (1 / 3))) + 2
    primes = sieve_primes(plimit).tolist()
    ax = np.arange(1, X + 1, dtype=np.int64)
    for p in primes:
        # x1 = -r x2 mod p where p does not divide x2, and x1 = 0 (root 0) where
        # it does; each least x1 >= 1 starts a progression at (x1 - 1) X + x2 - 1
        roots = roots_mod_p(f, p)
        free = ax[ax % p != 0]
        x2 = np.concatenate([free] * len(roots) + [ax[p - 1::p]])
        r = np.repeat(roots + [0], [len(free)] * len(roots) + [X // p])
        at = _progressions((-r * x2 - 1) % p * X + x2 - 1, p * X, X * X)[0]
        ecount = _exponents(flat[at], p, vmax)
        prod[at] *= p ** ecount
        tau_int[at] *= ecount + 1
        if p in bad_set:
            bad[at] = True
        if keep is not None:  # f has no rational root, so every marked N is nonzero
            sel = keep[at]
            for k, ee in zip(at[sel].tolist(), ecount[sel].tolist()):
                fac_store.setdefault(divmod(k, X), {})[p] = ee
    remain = flat // prod
    left = np.flatnonzero(remain > 1)
    L = remain[left]
    prime = prime_mask(L)[0]
    s = np.rint(np.sqrt(L)).astype(np.int64)  # exact below the 2^62 guard
    square = s * s == L
    tau_int[left] *= np.where(prime, 2, np.where(square, 3, 4))
    semi[left] = ~(prime | square)
    # a semiprime leftover with distinct factors is stored as -L
    key = np.where(square, s, np.where(prime, L, -L))
    bad[left] |= np.isin(key, list(bad_set))
    if keep is not None:
        sel = keep[left]
        for k, kk, ee in zip(left[sel].tolist(), key[sel].tolist(),
                             (square[sel] + 1).tolist()):
            fac_store.setdefault(divmod(k, X), {})[kk] = ee
    shape = vals.shape
    return (tau_int.reshape(shape), bad.reshape(shape), semi.reshape(shape),
            fac_store, len(primes))
