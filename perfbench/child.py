"""One benchmark sample: a fresh process that sets up one workload and runs it.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --work DIR

MODE is one of
  run    set up, run the workload once, report timestamps, peak memory and
         the workload's exact outputs;
  trace  the same with every public normform function wrapped by the tracer,
         plus the per-layer figures;
  check  independent oracles on a seeded sample of this workload's inputs,
         and the sha256 of the report files of the shipped configs that
         belong to this workload.

The last line of standard output is one JSON object.  Timestamps are
CLOCK_MONOTONIC readings, comparable with the parent's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Input sizes.  The layer named for each workload takes most of its time.
PRIME_FIELD = [-2, 0, 0, 0, 1]   # x^4 - 2, k = 1: theorem on [1, PRIME_X]^3
PRIME_X = 80
PRIME_MC_SAMPLES = 400_000
PRIME_THREADS = 2
DIVISOR_X = 96                   # divisor_sum_check(DIVISOR_X, 1, x^3 - 2)
GAMMA_Y = 10**6                  # gamma_estimate(GAMMA_Y, x^4 - 2)
REDUCED_BASES = 6                # reduced_basis(lambda_v(v)) on x^8 - 2, k = 1
REGION_LATTICES = 2              # points_in_region on rank-3 lambda_v, x^4 - 2
REGION_ENUM_TARGET = 30_000      # lattice vectors enumerated per region, about
CENSUS_PRIMES = (3, 5, 7)        # fp_wedge_census on x^7 - 2, k = 2
ORACLE_SAMPLES = 300


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> None:
    from normform import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"normform {' '.join(argv)} exited {rc}")


def nonzero_vector(rng: random.Random, n: int, bound: int) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return v


# --- workloads: setup(seed, work) -> inputs; run(inputs) -> exact outputs -----


def setup_prime_count(seed, work):
    cfg = {"field": {"f": PRIME_FIELD, "k": 1}, "X": PRIME_X, "p_cut": 10_000,
           "seed": seed, "mc_samples": PRIME_MC_SAMPLES}
    path = work / "theorem_config.json"
    path.write_text(json.dumps(cfg))
    return {"config": path, "out": work / "theorem"}


def run_prime_count(inp):
    run_cli(["theorem", "--config", str(inp["config"]), "--out", str(inp["out"]),
             "--threads", str(PRIME_THREADS)])


def outputs_prime_count(inp):
    rep = json.loads((inp["out"] / "theorem.json").read_text())
    return {"primes_pos": rep["observed"],
            "primes_neg": rep["details"]["observed_negative_norm_primes"],
            "primality_certified": rep["details"]["primality_certified"],
            "report_sha256": [sha256(inp["out"] / "theorem.json"),
                              sha256(inp["out"] / "theorem.csv")]}


def setup_divisor_sum(seed, work):
    from normform.fields import make_context

    return {"ctx": make_context([-2, 0, 0], 1)}


def run_divisor_sum(inp):
    from normform import experiments

    inp["report"] = experiments.divisor_sum_check(DIVISOR_X, 1, inp["ctx"])


def outputs_divisor_sum(inp):
    rep = inp["report"]
    return {"surrogate_sum": rep.observed,
            "ideal_sum": rep.details["ideal_sum"],
            "ideal_points": rep.details["ideal_points"],
            "points_skipped": rep.details["points_skipped_bad_or_unsplit"]}


def setup_ideal_density(seed, work):
    from normform.fields import make_context

    return {"ctx": make_context([-2, 0, 0, 0], 1),
            "config": ROOT / "configs" / "typeii_integral.json",
            "out": work / "integral"}


def run_ideal_density(inp):
    from normform import localdata

    inp["gamma"] = localdata.gamma_estimate(GAMMA_Y, inp["ctx"])
    run_cli(["integral", "--config", str(inp["config"]), "--out", str(inp["out"])])


def outputs_ideal_density(inp):
    rep = json.loads((inp["out"] / "integral.json").read_text())
    return {"ideal_count": round(inp["gamma"] * GAMMA_Y),
            "typeii_observed": rep["typeii"]["observed"],
            "typeii_ideal_pairs": rep["typeii"]["details"]["ideal_level"]["observed_ordered_pairs"],
            "integral_sha256": sha256(inp["out"] / "integral.json")}


def quartic_constraint(u):
    """The functional x -> last coordinate of x*u in Z[w], w^4 = 2: (u3, u2, u1, u0)."""
    return list(reversed(u))


def region_half_side(c) -> int:
    """Half-side h of the box [-h, h]^4 whose bounding ball holds about
    REGION_ENUM_TARGET vectors of the rank-3 lattice orthogonal to c."""
    det = math.sqrt(sum(t * t for t in c)) / math.gcd(*c)
    radius = (REGION_ENUM_TARGET * det * 3 / (4 * math.pi)) ** (1 / 3)
    return max(3, round(radius / 2))


def setup_lattice_geometry(seed, work):
    from normform.fields import make_context
    from normform.geometry import AxisBox, LinearRegion

    rng = random.Random(seed)
    vs = [nonzero_vector(rng, 8, 5) for _ in range(REDUCED_BASES)]
    regions = []
    for _ in range(REGION_LATTICES):
        u = nonzero_vector(rng, 4, 9)
        h = region_half_side(quartic_constraint(u))
        regions.append((u, h, LinearRegion.from_box(AxisBox.cube(4, -h, h))))
    return {"ctx8": make_context([-2] + [0] * 7, 1),
            "ctx4": make_context([-2, 0, 0, 0], 1),
            "ctx7": make_context([-2] + [0] * 6, 2),
            "vs": vs, "regions": regions}


def run_lattice_geometry(inp):
    from normform import census, geometry, lattices

    inp["minima"] = [lattices.reduced_basis(lattices.lambda_v(v, inp["ctx8"])).minima_sq
                     for v in inp["vs"]]
    inp["points"] = [geometry.points_in_region(lattices.lambda_v(u, inp["ctx4"]), region)
                     for u, _h, region in inp["regions"]]
    inp["census"] = [census.fp_wedge_census(p, inp["ctx7"]) for p in CENSUS_PRIMES]


def outputs_lattice_geometry(inp):
    return {"minima_sq": [list(m) for m in inp["minima"]],
            "region_points": inp["points"],
            "census_counts": inp["census"]}


WORKLOADS = {
    "prime_count": (setup_prime_count, run_prime_count, outputs_prime_count),
    "divisor_sum": (setup_divisor_sum, run_divisor_sum, outputs_divisor_sum),
    "ideal_density": (setup_ideal_density, run_ideal_density, outputs_ideal_density),
    "lattice_geometry": (setup_lattice_geometry, run_lattice_geometry,
                         outputs_lattice_geometry),
}


# --- oracles: check(seed, work) -> (checks, expected outputs) -----------------


def check_prime_count(seed, work):
    import numpy as np
    import sympy
    from normform.fields import eval_norm_poly_grid, make_context, norm_form, norm_form_polynomial
    from normform.primes import is_prime_certified

    ctx = make_context(PRIME_FIELD[:-1], 1)
    rng = random.Random(seed)
    pts = [[rng.randint(1, PRIME_X) for _ in range(ctx.m)] for _ in range(ORACLE_SAMPLES)]
    exact = [norm_form(x, ctx) for x in pts]
    grid = eval_norm_poly_grid(norm_form_polynomial(ctx),
                               [np.array(col, dtype=np.int64) for col in zip(*pts)])
    checks = [("eval_norm_poly_grid == norm_form on sampled box points",
               [int(v) for v in grid] == exact)]
    bad = [v for v in exact if is_prime_certified(abs(v))[0] != sympy.isprime(abs(v))]
    checks.append((f"is_prime_certified == sympy.isprime on {len(exact)} sampled values",
                   not bad))
    return checks, {}


def check_divisor_sum(seed, work):
    import sympy
    from normform.fields import make_context, norm_form
    from normform.primes import tau

    ctx = make_context([-2, 0, 0], 1)
    rng = random.Random(seed)
    vals = [abs(norm_form((rng.randint(1, DIVISOR_X), rng.randint(1, DIVISOR_X)), ctx))
            for _ in range(ORACLE_SAMPLES)]
    bad = [v for v in vals if v and tau(v) != sympy.divisor_count(v)]
    return [(f"primes.factorize tau == sympy.divisor_count on {len(vals)} grid values",
             not bad)], {}


def check_ideal_density(seed, work):
    import numpy as np
    import sympy
    from normform.fields import make_context
    from normform.localdata import bad_primes
    from normform.primes import primes_in, window_factorizations
    from normform.splitting import batch_degree_patterns, batch_root_counts, degree_pattern_mod_p

    ctx = make_context([-2, 0, 0, 0], 1)
    f = list(ctx.f_coeffs)
    rng = random.Random(seed)
    bad = set(bad_primes(ctx))
    ps = sorted(rng.sample([p for p in primes_in(3, 3000) if p not in bad], 40))
    arr = np.array(ps, dtype=np.int64)
    pats = batch_degree_patterns(f, arr)
    roots = batch_root_counts(f, arr)
    ok_pat = all(Counter(degree_pattern_mod_p(f, p)[0]) ==
                 Counter({d + 1: int(c) for d, c in enumerate(pats[i]) if c})
                 for i, p in enumerate(ps))
    ok_root = all(int(roots[i]) == int(pats[i, 0]) for i in range(len(ps)))
    lo = rng.randint(10**6, 15 * 10**5)
    facs = window_factorizations(lo, lo + 2000)
    ok_win = all(fac == sympy.factorint(lo + i) for i, fac in enumerate(facs))
    return [(f"batch_degree_patterns == degree_pattern_mod_p at {len(ps)} primes", ok_pat),
            (f"batch_root_counts == degree-1 pattern count at {len(ps)} primes", ok_root),
            (f"window_factorizations == sympy.factorint on [{lo}, {lo + 2000})", ok_win)], {}


def region_count_oracle(c, h) -> int:
    """#{x in [-h, h]^4 : c.x = 0}, from value histograms of coordinate pairs."""
    r = range(-h, h + 1)
    left = Counter(c[0] * a + c[1] * b for a in r for b in r)
    right = Counter(c[2] * a + c[3] * b for a in r for b in r)
    return sum(n * right[-s] for s, n in left.items())


def check_lattice_geometry(seed, work):
    from normform.fields import constraint_rows
    from normform.intlinalg import gram_det, kernel_oracle
    from normform.lattices import IntLattice, det_squared_formula, lambda_v, lattice_det_sq, wedge

    inp = setup_lattice_geometry(seed, work)
    det_ok = kernel_ok = True
    cases = [(v, inp["ctx8"]) for v in inp["vs"]] + [(u, inp["ctx4"]) for u, _, _ in inp["regions"]]
    for v, ctx in cases:
        lat = lambda_v(v, ctx)
        det_ok &= det_squared_formula(wedge(v, ctx)) == lattice_det_sq(lat)
        oracle = IntLattice(ctx.n, tuple(tuple(r) for r in kernel_oracle(constraint_rows(v, ctx))))
        kernel_ok &= (gram_det([list(r) for r in oracle.basis]) == lattice_det_sq(lat)
                      and all(oracle.contains(r) for r in lat.basis))
    rows_ok = True
    expected_points = []
    for u, h, _region in inp["regions"]:
        c = quartic_constraint(u)
        row = constraint_rows(u, inp["ctx4"])[0]
        rows_ok &= any(all(a == s * b for a, b in zip(row, c)) for s in (1, -1))
        expected_points.append(region_count_oracle(c, h))
    return [(f"det_squared_formula == lattice_det_sq on {len(cases)} lattices", det_ok),
            (f"kernel_oracle spans lambda_v on {len(cases)} lattices", kernel_ok),
            ("constraint_rows on x^4 - 2 match the coefficient functional", rows_ok)], \
        {"region_points": expected_points}


CHECKS = {
    "prime_count": check_prime_count,
    "divisor_sum": check_divisor_sum,
    "ideal_density": check_ideal_density,
    "lattice_geometry": check_lattice_geometry,
}


def config_hashes(workload, work):
    """sha256 of every report file of the shipped configs assigned to workload."""
    refs = json.loads((Path(__file__).parent / "references.json").read_text())["configs"]
    out = {}
    for name, ref in sorted(refs.items()):
        if ref["workload"] != workload:
            continue
        outdir = work / ("config-" + Path(name).stem)
        run_cli([ref["command"], "--config", str(ROOT / "configs" / name),
                 "--out", str(outdir)])
        for path in sorted(outdir.iterdir()):
            out[f"{name}/{path.name}"] = sha256(path)
    return out


# --- tracing ----------------------------------------------------------------------

# Functions each workload must reach; a wrapper that misses them fails the run.
EXPECTED_CALLS = {
    "prime_count": ("experiments.observed_prime_count", "primes.is_prime_certified",
                    "fields.eval_norm_poly_grid", "experiments.log_norm_integral",
                    "series.singular_series"),
    "divisor_sum": ("experiments.divisor_sum_check", "localdata.ideal_tau",
                    "splitting.hensel_lift_factor", "localdata.resultant",
                    "splitting.roots_mod_p", "fields.eval_norm_poly_grid"),
    "ideal_density": ("localdata.ideal_count", "splitting.batch_degree_patterns",
                      "splitting.batch_root_counts", "primes.window_factorizations",
                      "integrals.polytope_integral", "experiments.typeii_density_check"),
    "lattice_geometry": ("lattices.reduced_basis", "intlinalg.lll_reduce",
                         "intlinalg.enumerate_short_vectors", "geometry.points_in_region",
                         "census.fp_wedge_census"),
}


def install_tracer():
    import normform
    from tracer import Tracer, install

    tracer = Tracer()
    lift_keys = set()

    def lift(args, result):
        f, g, p, prec = args
        lift_keys.add((tuple(f), tuple(g), p, prec))
        return {}

    hooks = {
        "primes.is_prime_certified": lambda a, r: {"prime.results": int(r[0])},
        "fields.eval_norm_poly_grid": lambda a, r: {"grid.points": int(r.size)},
        "localdata.ideal_tau": lambda a, r: {"ideal_tau.resolved": int(r is not None)},
        "splitting.hensel_lift_factor": lift,
        "experiments.divisor_sum_check": lambda a, r: {
            "divisor.ideal_points": r.details.get("ideal_points", 0),
            "divisor.grid_points": a[0] ** 2},
        "splitting.batch_degree_patterns": lambda a, r: {"degree_patterns.primes": len(a[1])},
        "splitting.batch_root_counts": lambda a, r: {"root_counts.primes": len(a[1])},
    }
    install(tracer, normform, hooks, cpu={"experiments.observed_prime_count"})
    return tracer, lift_keys


def layer_figures(tracer, lift_keys):
    """The per-layer metrics of BENCHMARK.json that a traced sample measures:
    every "<function>.self_s" and "<function>.calls", and the named counts
    and ratios below.  import.* and trace.overhead_s come from run.py."""
    fn = tracer.per_function()
    c = tracer.counters

    def calls(name):
        return fn.get(name, (0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    opc = "experiments.observed_prime_count"
    out = {
        "primes.is_prime_certified.yield":
            ratio(c["prime.results"], calls("primes.is_prime_certified")),
        f"{opc}.cpu_util": ratio(c[f"{opc}.cpu_s"], c[f"{opc}.wall_s"]),
        "fields.eval_norm_poly_grid.points": c["grid.points"],
        "splitting.hensel_lift_factor.unique_frac":
            ratio(len(lift_keys), calls("splitting.hensel_lift_factor")),
        "localdata.ideal_tau.resolved_frac":
            ratio(c["ideal_tau.resolved"], calls("localdata.ideal_tau")),
        "experiments.divisor_sum_check.resolved_frac":
            ratio(c["divisor.ideal_points"], c["divisor.grid_points"]),
        "splitting.batch_degree_patterns.primes": c["degree_patterns.primes"],
        "splitting.batch_root_counts.primes": c["root_counts.primes"],
        "intlinalg.enumerate_short_vectors.vectors":
            c["intlinalg.enumerate_short_vectors.yielded"],
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in (m["name"] for m in spec["per_layer"]):
        name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = fn.get(name, (0, 0.0))[1]
        elif kind == "calls":
            out[metric] = calls(name)
    return out


# --- entry point --------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace", "check"))
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    import normform  # noqa: F401  (import cost belongs to set-up)

    if args.mode == "check":
        checks, expected = CHECKS[args.workload](args.seed, args.work)
        result = {"checks": checks, "expected": expected,
                  "config_sha256": config_hashes(args.workload, args.work)}
    else:
        setup, run, outputs = WORKLOADS[args.workload]
        inp = setup(args.seed, args.work)
        if args.mode == "trace":
            tracer, lift_keys = install_tracer()
        t_ready = now()
        run(inp)
        t_last = now()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"t_ready": t_ready, "t_last": t_last, "peak_rss_kb": peak_kb,
                  "outputs": outputs(inp)}
        if args.mode == "trace":
            fn = tracer.per_function()
            result["layers"] = layer_figures(tracer, lift_keys)
            result["checks"] = [(f"{name} was called", fn.get(name, (0, 0))[0] > 0)
                                for name in EXPECTED_CALLS[args.workload]]
            result["table"] = sorted(([n, p, *v] for (n, p), v in tracer.table().items()),
                                     key=lambda row: -row[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
