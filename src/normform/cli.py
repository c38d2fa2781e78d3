"""Command-line front door: JSON config in, deterministic JSON/CSV reports out.

Exit codes: 0 success, 2 validation error, 3 budget exceeded.  Reports
written to --out are byte-deterministic for fixed (config, seed, threads);
volatile data (wall time) goes to stdout/stderr only.  Each subcommand's
config keys are declared once, on its runner, and read by _parse.
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
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .buchstab import buchstab_report
from .census import fp_wedge_census_report, skew_census
from .errors import BudgetExceeded, NormformError, ValidationError
from .experiments import (
    MC_MIN_PER_SLAB,
    MC_SLABS,
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
from .series import (
    P_CUT_CAP,
    P_CUT_MIN,
    per_prime_factor_table,
    singular_series,
    singular_series_tilde,
)

log = logging.getLogger("normform")

# caps past which a config exits 3 before any work; README "CLI" gives each reason
MC_SAMPLES_CAP = 10**8
TYPEI_D_CAP = 10**6
BUCHSTAB_VALUES_CAP = 10**6
SKEW_SAMPLES_CAP = 10**6


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _defined_ratio(rep, where: str) -> None:
    """Exit 2 on a report whose ratio is undefined: a positive count against
    a predicted 0, naming where the count was taken."""
    if math.isinf(rep.ratio):
        raise ValidationError(f"{rep.observed} counted on {where}, where the "
                              f"predicted main term is 0: the ratio is undefined")


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
    except (ValueError, RecursionError) as exc:  # over-long ints raise ValueError
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


# --- the config boundary ------------------------------------------------------
# A check(value, name) returns the parsed value, or raises ValidationError
# naming the key; every check rejects None.


def _int(value, name: str) -> int:
    if type(value) is not int:  # a bool is an int subclass, a float is not
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    return value


def _finite(value, name: str) -> float:
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _list(item: Callable) -> Callable:
    def check(values, name: str) -> list:
        if not isinstance(values, list):
            raise ValidationError(f"{name} must be a list, not {values!r}")
        return [item(v, f"{name} entry") for v in values]
    return check


def _primes(values, name: str) -> list[int]:
    primes = _list(_int)(values, name)
    if not primes or not all(map(is_prime, primes)):
        raise ValidationError(f"{name} entries must be primes, one at least, not {primes}")
    return primes


def _box(box, name: str) -> tuple[tuple[int, int], ...]:
    if not (isinstance(box, list) and all(
            isinstance(b, list) and len(b) == 2 and all(type(e) is int for e in b)
            and b[0] <= b[1] for b in box)):
        raise ValidationError(f"{name} must be a list of [lo, hi] integer pairs, "
                              f"lo <= hi, not {box!r}")
    return tuple(tuple(b) for b in box)


def _range(value, name: str) -> range:
    bounds = _list(_int)(value, name)
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ValidationError(f"{name} must be [lo, hi] with lo <= hi, not {bounds}")
    return range(bounds[0], bounds[1] + 1)


def _intervals(value, name: str) -> list:
    if not (isinstance(value, list) and value
            and all(isinstance(iv, list) and len(iv) == 2 for iv in value)):
        raise ValidationError("integral config needs 'intervals': [[lo, hi], ...]")
    for e in itertools.chain.from_iterable(value):
        _finite(e, f"{name} entry")
    return value  # the report repeats the intervals as given


def _field(value, name: str) -> FieldSpec:
    return FieldSpec.from_json_dict(value)


def _census_kind(value, name: str) -> str:
    if value not in ("fp_wedge", "skew"):
        raise ValidationError(f"unknown census kind {value!r}")
    return value


def _block(keys: dict, where: str) -> Callable:
    """Check of a nested object whose keys are declared in keys."""
    def check(value, name: str) -> dict:
        if not isinstance(value, dict):
            raise ValidationError(f"{name} must be an object with keys {list(keys)}, "
                                  f"not {value!r}")
        return _parse(keys, value, {}, where, f"{where} block is missing", f"{where} ")
    return check


class Key(NamedTuple):
    """One config key.  default ... marks a required key.  lo (a number, or
    an earlier key's name) and hi bound the value, or each list entry: exit 2
    outside; exit 3 above cap.  --flag replaces the config value, 0 included;
    a flag_only key is read from its flag alone."""

    check: Callable
    default: object = ...
    lo: object = None
    hi: int | None = None
    cap: int | None = None
    flag: str | None = None
    flag_only: bool = False


def _parse(keys: dict, cfg: dict, flags: dict, where: str, needs: str,
           prefix: str = "") -> dict:
    """{key: parsed value} for each of keys, from the flags, cfg or defaults."""
    unknown = set(cfg) - {k for k, key in keys.items() if not key.flag_only}
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    out = {}
    for k, key in keys.items():
        name = f"{prefix}{k!r}"
        if flags.get(key.flag) is not None:
            value, name = flags[key.flag], f"--{key.flag}"
        elif k in cfg:
            value = cfg[k]
        elif key.default is ...:
            value, name = None, f"{needs} {k!r}: {name}"  # the check rejects None
        else:
            out[k] = key.default
            continue
        out[k] = value = key.check(value, name)
        lo = out[key.lo] if isinstance(key.lo, str) else key.lo
        least = f"{key.lo!r} = {lo}" if isinstance(key.lo, str) else lo
        if isinstance(value, list):
            name = f"{name} entry"
        for v in value if isinstance(value, list) else [value]:
            if lo is not None and v < lo:
                raise ValidationError(f"{name} must be at least {least}, not {v!r}")
            if key.hi is not None and v > key.hi:
                raise ValidationError(f"{name} must be at most {key.hi}, not {v!r}")
            if key.cap is not None and v > key.cap:
                raise BudgetExceeded(f"{name} {v!r} exceeds the cap {key.cap}")
    return out


_COMMANDS: dict[str, tuple[dict, Callable]] = {}


def _subcommand(**keys: Key) -> Callable:
    """Register _run_<name> as subcommand name, with the keys of its config."""
    def register(run: Callable) -> Callable:
        _COMMANDS[run.__name__.removeprefix("_run_")] = keys, run
        return run
    return register


# one seed rule everywhere: numpy's Philox takes keys in [0, 2^128)
_SEED = Key(_int, 0, lo=0, hi=2**128 - 1, flag="seed")
_EXPERIMENT = dict(
    field=Key(_field), X=Key(_int, lo=2), box=Key(_box, ()),
    eta1=Key(_finite, 0.1), eta2=Key(_finite, 0.05),
    p_cut=Key(_int, 10_000, cap=P_CUT_CAP, flag="pcut"),  # the library checks >= P_CUT_MIN
    seed=_SEED, threads=Key(_int, 1, lo=1, flag="threads"),
    point_budget=Key(_int, 10**7, flag="budget"),
    mc_samples=Key(_int, 200_000, lo=MC_SLABS * MC_MIN_PER_SLAB, cap=MC_SAMPLES_CAP))


# --- subcommand runners: each takes the parsed values of its keys and returns
# the JSON report, and the CSV header and rows or None -----------------------


@_subcommand(field=Key(_field), box=Key(_box, None), X=Key(_int, 10, lo=1),
             max_rows=Key(_int, 1000, lo=0),
             budget=Key(_int, 10**6, flag="budget", flag_only=True))
def _run_norms(p: dict) -> tuple:
    ctx = p["field"]
    box = p["box"] if p["box"] is not None else ((1, p["X"]),) * ctx.m
    if len(box) != ctx.m:
        raise ValidationError(f"box must have {ctx.m} coordinates")
    npts = math.prod(hi - lo + 1 for lo, hi in box)
    if npts > p["budget"]:
        raise BudgetExceeded(f"{npts} points exceed budget")
    rows, neg, tiny = [], 0, 0
    for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        v = norm_form(x, ctx)
        neg += v < 0
        tiny += abs(v) < 2
        if len(rows) < p["max_rows"]:
            rows.append(list(x) + [v])
    payload = {
        "field": ctx.to_json_dict(),
        "box": [list(b) for b in box],
        "points": npts,
        "negative_norms": neg,
        "tiny_norms": tiny,
    }
    header = [f"x{i+1}" for i in range(ctx.m)] + ["norm"]
    return payload, header, rows


@_subcommand(field=Key(_field),
             p_cut=Key(_int, 10_000, lo=P_CUT_MIN, cap=P_CUT_CAP, flag="pcut"))
def _run_sseries(p: dict) -> tuple:
    ctx, p_cut = p["field"], p["p_cut"]
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
    }
    header = ["p", "degree_pattern", "nu_p", "nu", "factor", "running_product"]
    return payload, header, [[r[h] for h in header] for r in rows]


@_subcommand(field=Key(_field), v=Key(_list(_int)))
def _run_lattice(p: dict) -> tuple:
    ctx, v = p["field"], p["v"]
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
    }
    return (payload, ["basis_row"] + [f"c{i}" for i in range(ctx.n)],
            [[i] + list(b) for i, b in enumerate(rb.basis)])


@_subcommand(field=Key(_field), census=Key(_census_kind, "fp_wedge"),
             primes=Key(_primes, [3, 5, 7]), B=Key(_int, 20, lo=1),
             samples=Key(_int, 500, lo=1, cap=SKEW_SAMPLES_CAP),
             kappas=Key(_list(_finite), [0.0, 2**-10, 2**-6, 1.0], lo=0), seed=_SEED,
             budget=Key(_int, 10**8, flag="budget", flag_only=True))
def _run_census(p: dict) -> tuple:
    if p["census"] == "fp_wedge":
        rep = fp_wedge_census_report(p["field"], p["primes"], budget=p["budget"])
    else:
        rep = skew_census(p["field"], p["B"], p["samples"], p["kappas"], seed=p["seed"])
    return rep.to_json_dict(), *rep.csv_rows()


@_subcommand(**_EXPERIMENT, d_lo=Key(_int, 16, lo=1),
             d_hi=Key(_int, 128, lo="d_lo", cap=TYPEI_D_CAP))
def _run_typei(p: dict) -> tuple:
    d_lo, d_hi = p.pop("d_lo"), p.pop("d_hi")
    rep = typei_discrepancy(ExperimentConfig(ctx=p.pop("field"), **p), d_lo, d_hi)
    payload = {k: rep.details[k] for k in ("blocks", "fitted_constant",
                                           "max_block_over_fitted", "bad_primes_excluded")}
    payload.update(kind=rep.kind, config=rep.config)
    header = ["D", "terms", "aggregate", "reference", "ratio", "per_term_bound_ok"]
    return payload, header, [[b[h] for h in header] for b in rep.details["blocks"]]


@_subcommand(**_EXPERIMENT)
def _run_theorem(p: dict) -> tuple:
    rep = theorem_check(ExperimentConfig(ctx=p.pop("field"), **p))
    _defined_ratio(rep, f"the box {rep.config['box']}")
    payload = {k: getattr(rep, k)
               for k in ("kind", "observed", "predicted", "pred_err", "ratio", "config")}
    payload["details"] = {k: v for k, v in rep.details.items() if k != "sseries"}
    payload["sseries"] = rep.details["sseries"]
    header = ["slab", "x1_lo", "x1_hi", "points", "primes_pos", "primes_neg"]
    return payload, header, [[s[h] for h in header] for s in rep.slabs]


@_subcommand(intervals=Key(_intervals),
             typeii=Key(_block({"X": Key(_int), "eta": Key(_finite)}, "typeii"), None),
             field=Key(_field, None), target_sum=Key(_finite))
def _run_integral(p: dict) -> tuple:
    spec = PolytopeSpec.make(p["intervals"])
    t0 = time.perf_counter()
    value = polytope_integral(spec, p["target_sum"])
    log.info("slice integral: %.3f s", time.perf_counter() - t0)
    payload = {
        "intervals": [list(iv) for iv in p["intervals"]],
        "target_sum": p["target_sum"],
        "value": value,
    }
    if p["typeii"] is not None:
        rep = typeii_density_check(spec, **p["typeii"], ctx=p["field"])
        _defined_ratio(rep, f"the Type II window {rep.details['window']}")
        payload["typeii"] = {k: getattr(rep, k)
                             for k in ("observed", "predicted", "ratio", "details")}
    return payload, None, None


@_subcommand(z1=Key(_finite), z2=Key(_finite, lo="z1"),
             values=Key(_list(_int), None), range=Key(_range, None),
             field=Key(_field, None), box=Key(_box, None))
def _run_buchstab(p: dict) -> tuple:
    # a range or a box stays lazy until buchstab_report reads it
    if p["values"] is not None:
        values, count = p["values"], 0
    elif p["range"] is not None:
        values = p["range"]
        count = values.stop - values.start
    elif p["field"] is not None and p["box"] is not None:
        points = itertools.product(*[range(lo, hi + 1) for lo, hi in p["box"]])
        values = filter(None, (norm_form(x, p["field"]) for x in points))
        count = math.prod(hi - lo + 1 for lo, hi in p["box"])
    else:
        raise ValidationError("buchstab config needs values, range, or field+box")
    if count > BUCHSTAB_VALUES_CAP:
        raise BudgetExceeded(f"{count} values exceed the cap {BUCHSTAB_VALUES_CAP}")
    rep = buchstab_report(values, p["z1"], p["z2"])
    return rep.to_json_dict(), None, None


@_subcommand(field=Key(_field), X=Key(_int, lo=1), e=Key(_int, 1, lo=0, hi=2),
             budget=Key(_int, 2 * 10**7, flag="budget", flag_only=True))
def _run_divisor(p: dict) -> tuple:
    rep = divisor_sum_check(p["X"], p["e"], p["field"], budget=p["budget"])
    return {k: getattr(rep, k) for k in ("kind", "observed", "predicted", "ratio",
                                         "config", "details")}, None, None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normform",
        description="incomplete norm form experiments and verifications")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default="out")
        for flag in ("seed", "threads", "pcut", "budget"):
            sp.add_argument(f"--{flag}", type=int, default=None)
    return ap


def _log_level_from_env() -> None:
    """Set the normform logger's level from NORMFORM_LOG, when set, and give
    it one stderr handler; the root logger is never touched."""
    level = os.environ.get("NORMFORM_LOG")
    if level is not None:
        log.setLevel(getattr(logging, level.upper(), logging.WARNING))
        if not log.handlers:
            log.addHandler(logging.StreamHandler())
            log.handlers[0].setFormatter(logging.Formatter(logging.BASIC_FORMAT))


def main(argv=None) -> int:
    _log_level_from_env()
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.config is None:
            raise ValidationError("--config PATH is required")
        keys, run = _COMMANDS[args.command]
        params = _parse(keys, _load_config(args.config), vars(args), "config",
                        f"{args.command} config needs")
        payload, header, rows = run(params)
        payload["version"] = __version__
        _write_report(Path(args.out), args.command, payload, header, rows)
        print(_canonical_json({**payload, "runtime_s": time.time() - t0}), end="")
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
