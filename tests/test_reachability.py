"""Every public function of normform is reached by a CLI run, or is listed
here with the reason it stays."""

import importlib
import inspect
import json
import pkgutil
import sys
import threading

import normform
from normform import cli
from test_cli import CONFIG_REFS, ROOT, RUNS

# name -> why it stays although no run below calls it
UNREACHED = {
    "buchstab.buchstab_residual": "acceptance-only: the Buchstab identity criterion",
    "lattices.lambda_pair": "acceptance-only: the joint constraint lattice criterion",
    "intlinalg.rank_rational": "acceptance-only: lambda_pair's rank check is its one caller",
    "localdata.squarefree_ideal_symbols": "acceptance-only: sieve_sum's enumeration",
    "localdata.rho_group_closed": "acceptance-only: squarefree_ideal_symbols' closed form",
    "series.sieve_sum": "acceptance-only: the Perron-limit sieve sum",
    "localdata.nu_brute": "oracle: nu by exhaustive evaluation",
    "localdata.nu_fast": "oracle: nu from the splitting symbols at good p",
    "localdata.nu_from_degrees": "oracle: nu per prime, against nu_polynomial",
    "localdata.nu2_from_degrees": "oracle: nu_2 per prime, against nu2_polynomial",
    "localdata.rho": "oracle: the F_p-rank density that checks rho_group_closed",
    "localdata.rho_brute": "oracle: rho by literal counting",
    "intlinalg.kernel_oracle": "oracle: the kernel by column reduction, against kernel_sequential",
    "primes.tau": "oracle: the benchmark's divisor-count check",
    "localdata.gamma_estimate": "benchmark entry point: ideal_density; acceptance's zeta residue",
    "localdata.ideal_count": "benchmark entry point: gamma_estimate's count",
    "geometry.points_in_region": "benchmark entry point: lattice_geometry",
    "intlinalg.solve_rational": ("oracle: IntLattice.contains, in the benchmark kernel check"
                                 " and the lattice tests"),
    "integrals.closed_form_l2": "acceptance-only: the exact l = 2 slice integral check",
}

# the small runs of subcommands that no shipped config covers
SMALL_RUNS = [(cmd, cfg) for cmd, cfg in RUNS if cmd in ("divisor", "census", "norms")]


def modules():
    return [importlib.import_module(f"{normform.__name__}.{m.name}")
            for m in pkgutil.iter_modules(normform.__path__)]


def public_functions() -> dict:
    """{code object: "module.name"} of the functions each module defines,
    lru_cache wrappers unwrapped to the function whose code runs on a miss."""
    out = {}
    for mod in modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                out[fn.__code__] = f"{short}.{name}"
    return out


def clear_caches():
    """Empty every lru_cache, so that a call runs its function's code."""
    for mod in modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_unreached_public_functions_are_listed(tmp_path, capsys):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    runs = [[ref["command"], "--config", str(ROOT / "configs" / name)]
            for name, ref in sorted(CONFIG_REFS.items())]
    for cmd, cfg in SMALL_RUNS:
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(cfg))
        runs.append([cmd, "--config", str(path)])
    assert len(runs) == len(CONFIG_REFS) + 3
    clear_caches()
    saved = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [cli.main([*argv, "--out", str(tmp_path / f"out{i}")])
                 for i, argv in enumerate(runs)]
    finally:
        sys.setprofile(saved[0])
        threading.setprofile(saved[1])
    capsys.readouterr()
    assert codes == [0] * len(runs)
    unreached = {name for code, name in public_functions().items() if code not in reached}
    assert unreached == set(UNREACHED)
