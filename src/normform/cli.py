"""Command-line front door: JSON config in, deterministic JSON/CSV reports out.

Exit codes: 0 success, 2 validation error, 3 budget exceeded.  Reports
written to --out are byte-deterministic for fixed (config, seed, threads);
volatile data (wall time) goes to stdout/stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .buchstab import buchstab_report
from .census import fp_wedge_census_report, skew_census
from .errors import BudgetExceeded, NormformError, ValidationError
from .experiments import (
    ExperimentConfig,
    divisor_sum_check,
    theorem_check,
    typei_discrepancy,
    typeii_density_check,
)
from .fields import FieldSpec, norm_form
from .integrals import PolytopeSpec, polytope_integral
from .lattices import det_squared_formula, lambda_v, lattice_det_sq, reduced_basis, wedge
from .primes import is_prime
from .series import per_prime_factor_table, singular_series, singular_series_tilde

log = logging.getLogger("normform")

SUBCOMMANDS = ("norms", "sseries", "lattice", "census", "typei", "theorem",
               "integral", "buchstab", "divisor")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_report(outdir: Path, name: str, payload: dict,
                  csv_header=None, csv_rows=None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{name}.json").write_text(_canonical_json(payload))
    if csv_header is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        (outdir / f"{name}.csv").write_text(buf.getvalue())


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _reject_unknown(cfg: dict, allowed: set[str], where: str = "config") -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")


def _finite(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _int(value, name: str, lo: int | None = None) -> int:
    if type(value) is not int:  # a bool is an int subclass, a float is not
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be at least {lo}, not {value!r}")
    return value


def _list(values, name: str, item=_int) -> list:
    if not isinstance(values, list):
        raise ValidationError(f"{name} must be a list, not {values!r}")
    return [item(v, f"{name} entry") for v in values]


def _box(box) -> list[list[int]]:
    if not (isinstance(box, list) and all(
            isinstance(b, list) and len(b) == 2 and all(type(e) is int for e in b)
            and b[0] <= b[1] for b in box)):
        raise ValidationError(f"'box' must be a list of [lo, hi] integer pairs, "
                              f"lo <= hi, not {box!r}")
    return box


def _experiment_config(cfg: dict, args) -> ExperimentConfig:
    d = dict(cfg)
    if args.seed is not None:
        d["seed"] = args.seed
    if args.threads is not None:
        d["threads"] = args.threads
    if args.pcut is not None:
        d["p_cut"] = args.pcut
    if args.budget is not None:
        d["point_budget"] = args.budget
    for key in ("X", "p_cut", "seed", "threads", "point_budget", "mc_samples"):
        if key in d:
            _int(d[key], f"'{key}'")
    for key in ("eta1", "eta2"):
        if key in d:
            _finite(d[key], f"'{key}'")
    _box(d.get("box", []))
    return ExperimentConfig.from_json_dict(d)


# --- subcommand runners -----------------------------------------------------


def _run_theorem(cfg: dict, args, outdir: Path) -> dict:
    ecfg = _experiment_config(cfg, args)
    rep = theorem_check(ecfg)
    payload = {
        "kind": rep.kind,
        "observed": rep.observed,
        "predicted": rep.predicted,
        "pred_err": rep.pred_err,
        "ratio": rep.ratio,
        "sseries": rep.details["sseries"],
        "config": rep.config,
        "details": {k: v for k, v in rep.details.items() if k != "sseries"},
        "version": __version__,
    }
    header = ["slab", "x1_lo", "x1_hi", "points", "primes_pos", "primes_neg"]
    rows = [[s[h] for h in header] for s in rep.slabs]
    _write_report(outdir, "theorem", payload, header, rows)
    return payload


def _run_sseries(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"field", "p_cut"})
    ctx = FieldSpec.from_json_dict(cfg.get("field"))
    p_cut = (_int(cfg.get("p_cut", 10_000), "'p_cut'", 100) if args.pcut is None
             else _int(args.pcut, "--pcut", 100))
    S = singular_series(ctx, p_cut)
    St = singular_series_tilde(ctx, p_cut)
    rows = per_prime_factor_table(ctx, p_cut)
    payload = {
        "field": ctx.to_json_dict(),
        "singular_series": S.to_json_dict(),
        "singular_series_tilde": St.to_json_dict(),
        "value": S.value,
        "cutoff": p_cut,
        "tail_bound": S.tail_bound,
        "version": __version__,
    }
    header = ["p", "degree_pattern", "nu_p", "nu", "factor", "running_product"]
    _write_report(outdir, "sseries", payload, header,
                  [[r[h] for h in header] for r in rows])
    return payload


def _run_lattice(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"field", "v"})
    ctx = FieldSpec.from_json_dict(cfg.get("field"))
    v = _list(cfg.get("v"), "'v'")
    w = wedge(v, ctx)
    lat = lambda_v(v, ctx)
    rb = reduced_basis(lat)
    det_sq = lattice_det_sq(lat)
    payload = {
        "field": ctx.to_json_dict(),
        "v": v,
        "wedge_entries": list(w.entries),
        "wedge_content": w.content,
        "det_sq_formula": str(det_squared_formula(w)),
        "det_sq_gram": det_sq,
        "agree": str(det_squared_formula(w)) == str(det_sq),
        "basis": [list(b) for b in rb.basis],
        "minima_sq": list(rb.minima_sq),
        "near_orthogonality": rb.near_orthogonality,
        "version": __version__,
    }
    _write_report(outdir, "lattice", payload,
                  ["basis_row"] + [f"c{i}" for i in range(ctx.n)],
                  [[i] + list(b) for i, b in enumerate(rb.basis)])
    return payload


def _run_census(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"field", "census", "primes", "B", "samples",
                          "kappas", "seed"})
    ctx = FieldSpec.from_json_dict(cfg.get("field"))
    kind = cfg.get("census", "fp_wedge")
    if kind == "fp_wedge":
        primes = _list(cfg.get("primes", [3, 5, 7]), "'primes'")
        if not all(map(is_prime, primes)):
            raise ValidationError(f"'primes' entries must be primes, not {primes}")
        rep = fp_wedge_census_report(
            ctx, primes, budget=10**8 if args.budget is None else args.budget)
    elif kind == "skew":
        rep = skew_census(ctx, _int(cfg.get("B", 20), "'B'", 1),
                          _int(cfg.get("samples", 500), "'samples'", 1),
                          _list(cfg.get("kappas", [0.0, 2**-10, 2**-6, 1.0]),
                                "'kappas'", _finite),
                          seed=_int(cfg.get("seed", 0), "'seed'") if args.seed is None
                          else args.seed)
    else:
        raise ValidationError(f"unknown census kind {kind!r}")
    payload = {**rep.to_json_dict(), "version": __version__}
    header, rows = rep.csv_rows()
    _write_report(outdir, "census", payload, header, rows)
    return payload


def _run_typei(cfg: dict, args, outdir: Path) -> dict:
    d_lo = _int(cfg.pop("d_lo", 16), "'d_lo'", 1)
    d_hi = _int(cfg.pop("d_hi", 128), "'d_hi'")
    ecfg = _experiment_config(cfg, args)
    rep = typei_discrepancy(ecfg, d_lo, d_hi)
    payload = {
        "kind": rep.kind,
        "blocks": rep.details["blocks"],
        "fitted_constant": rep.details["fitted_constant"],
        "max_block_over_fitted": rep.details["max_block_over_fitted"],
        "bad_primes_excluded": rep.details["bad_primes_excluded"],
        "config": rep.config,
        "version": __version__,
    }
    header = ["D", "terms", "aggregate", "reference", "ratio", "per_term_bound_ok"]
    _write_report(outdir, "typei", payload, header,
                  [[b[h] for h in header] for b in rep.details["blocks"]])
    return payload


def _typeii_window(t2cfg) -> tuple[int, float]:
    """(X, eta) of the integral config's typeii block: an int X, a finite eta."""
    if not isinstance(t2cfg, dict):
        raise ValidationError(f"'typeii' must be an object {{X: int, eta: number}}, "
                              f"not {t2cfg!r}")
    _reject_unknown(t2cfg, {"X", "eta"}, "typeii")
    for key in ("X", "eta"):
        if key not in t2cfg:
            raise ValidationError(f"typeii block is missing {key!r}")
    return _int(t2cfg["X"], "typeii 'X'"), _finite(t2cfg["eta"], "typeii 'eta'")


def _run_integral(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"intervals", "target_sum", "typeii", "field"})
    intervals = cfg.get("intervals")
    if not (isinstance(intervals, list)
            and all(isinstance(iv, list) and len(iv) == 2 for iv in intervals)):
        raise ValidationError("integral config needs 'intervals': [[lo, hi], ...]")
    spec = PolytopeSpec.make([[_finite(e, "'intervals' entry") for e in iv]
                              for iv in intervals])
    window = _typeii_window(cfg["typeii"]) if "typeii" in cfg else None
    ctx = FieldSpec.from_json_dict(cfg["field"]) if "field" in cfg else None
    if "target_sum" not in cfg:
        raise ValidationError("integral config needs 'target_sum': a number")
    target = _finite(cfg["target_sum"], "'target_sum'")
    t0 = time.perf_counter()
    value = polytope_integral(spec, target)
    log.info("slice integral: %.3f s", time.perf_counter() - t0)
    payload = {
        "intervals": [list(iv) for iv in cfg["intervals"]],
        "target_sum": target,
        "value": value,
        "version": __version__,
    }
    if window is not None:
        rep = typeii_density_check(spec, *window, ctx=ctx)
        payload["typeii"] = {
            "observed": rep.observed,
            "predicted": rep.predicted,
            "ratio": rep.ratio,
            "details": rep.details,
        }
    _write_report(outdir, "integral", payload)
    return payload


def _run_buchstab(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"values", "range", "field", "box", "z1", "z2"})
    z1, z2 = _finite(cfg.get("z1"), "'z1'"), _finite(cfg.get("z2"), "'z2'")
    if "values" in cfg:
        values = _list(cfg["values"], "'values'")
    elif "range" in cfg:
        bounds = _list(cfg["range"], "'range'")
        if len(bounds) != 2 or bounds[0] > bounds[1]:
            raise ValidationError(f"'range' must be [lo, hi] with lo <= hi, not {bounds}")
        values = list(range(bounds[0], bounds[1] + 1))
    elif "field" in cfg and "box" in cfg:
        ctx = FieldSpec.from_json_dict(cfg.get("field"))
        ranges = [range(lo, hi + 1) for lo, hi in _box(cfg["box"])]
        values = [norm_form(x, ctx) for x in itertools.product(*ranges)]
        values = [v for v in values if v != 0]
    else:
        raise ValidationError("buchstab config needs values, range, or field+box")
    rep = buchstab_report(values, z1, z2)
    payload = {**rep.to_json_dict(), "version": __version__}
    _write_report(outdir, "buchstab", payload)
    return payload


def _run_divisor(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"field", "X", "e"})
    ctx = FieldSpec.from_json_dict(cfg.get("field"))
    if ctx.m != 2:
        raise ValidationError(f"divisor runs on n - k = 2 boxes, not {ctx.m}")
    X = cfg.get("X")
    e = cfg.get("e", 1)
    if type(X) is not int or X < 1:
        raise ValidationError(f"divisor config needs 'X': an integer >= 1, not {X!r}")
    if type(e) is not int or e not in (0, 1, 2):
        raise ValidationError(f"'e' must be 0, 1 or 2, not {e!r}")
    kwargs = {"budget": args.budget} if args.budget is not None else {}
    rep = divisor_sum_check(X, e, ctx, **kwargs)
    payload = {
        "kind": rep.kind,
        "observed": rep.observed,
        "predicted": rep.predicted,
        "ratio": rep.ratio,
        "config": rep.config,
        "details": rep.details,
        "version": __version__,
    }
    _write_report(outdir, "divisor", payload)
    return payload


def _run_norms(cfg: dict, args, outdir: Path) -> dict:
    _reject_unknown(cfg, {"field", "box", "X", "max_rows"})
    ctx = FieldSpec.from_json_dict(cfg.get("field"))
    if "box" in cfg:
        box = _box(cfg["box"])
    else:
        X = _int(cfg.get("X", 10), "'X'", 1)
        box = [(1, X)] * ctx.m
    if len(box) != ctx.m:
        raise ValidationError(f"box must have {ctx.m} coordinates")
    max_rows = _int(cfg.get("max_rows", 1000), "'max_rows'", 0)
    npts = math.prod(hi - lo + 1 for lo, hi in box)
    if npts > (10**6 if args.budget is None else args.budget):
        raise BudgetExceeded(f"{npts} points exceed budget")
    rows = []
    neg = 0
    tiny = 0
    total = 0
    for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        v = norm_form(x, ctx)
        total += 1
        if v < 0:
            neg += 1
        if abs(v) < 2:
            tiny += 1
        if len(rows) < max_rows:
            rows.append(list(x) + [v])
    payload = {
        "field": ctx.to_json_dict(),
        "box": [list(b) for b in box],
        "points": total,
        "negative_norms": neg,
        "tiny_norms": tiny,
        "version": __version__,
    }
    header = [f"x{i+1}" for i in range(ctx.m)] + ["norm"]
    _write_report(outdir, "norms", payload, header, rows)
    return payload


_RUNNERS = {
    "theorem": _run_theorem,
    "sseries": _run_sseries,
    "lattice": _run_lattice,
    "census": _run_census,
    "typei": _run_typei,
    "integral": _run_integral,
    "buchstab": _run_buchstab,
    "norms": _run_norms,
    "divisor": _run_divisor,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normform",
        description="incomplete norm form experiments and verifications")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--pcut", type=int, default=None)
        sp.add_argument("--budget", type=int, default=None)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("NORMFORM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.config is None:
            raise ValidationError("--config PATH is required")
        cfg = _load_config(args.config)
        outdir = Path(args.out)
        result = _RUNNERS[args.command](cfg, args, outdir)
        print(_canonical_json({**result, "runtime_s": time.time() - t0}), end="")
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NormformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
