"""CLI dispatch, exit codes, determinism of emitted artifacts."""

import builtins
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from normform import cli, experiments, series
from normform.cli import main


def write_cfg(tmp_path: Path, name: str, obj: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


FIELD3 = {"f": [-2, 0, 0, 1], "k": 1}
ROOT = Path(__file__).resolve().parent.parent
CONFIG_REFS = json.loads(
    (ROOT / "perfbench" / "references.json").read_text())["configs"]
# one small run of every subcommand
RUNS = [
    ("theorem", {"field": FIELD3, "X": 20, "p_cut": 300, "seed": 7}),
    ("sseries", {"field": FIELD3, "p_cut": 200}),
    ("census", {"field": {"f": [-2, 0, 0, 0, 0, 0, 0, 1], "k": 2},
                "census": "skew", "B": 10, "samples": 50,
                "kappas": [0.5], "seed": 3}),
    ("typei", {"field": FIELD3, "X": 25, "d_lo": 16, "d_hi": 32}),
    ("integral", {"intervals": [[0.4, 0.5], [0.3, 0.7]],
                  "target_sum": 1.0}),
    ("buchstab", {"range": [50, 150], "z1": 3, "z2": 11}),
    ("norms", {"field": FIELD3, "X": 4}),
    ("lattice", {"field": {"f": [-2, 0, 0, 0, 1], "k": 1},
                 "v": [1, 2, 3, 4]}),
    ("divisor", {"field": FIELD3, "X": 30, "e": 2}),
]


def run(argv) -> int:
    return main(argv)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["theorem", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["theorem", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": FIELD3, "X": 10, "bogus_key": 1})
        assert run(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_budget_exceeded(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 99999})
        assert run(["theorem", "--config", cfg, "--out", str(tmp_path),
                    "--budget", "1000"]) == 3

    def test_box_lower_end_exceeds_int64_budget(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}, "X": 2,
                         "box": [[-70000, 1], [1, 1], [1, 1]]})
        assert run(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("X, eta", [(10**5, -0.5), (1, 0.5)])
    def test_meaningless_typeii_window(self, tmp_path, X, eta):
        cfg = write_cfg(tmp_path, "c.json",
                        {"intervals": [[0.4, 0.5], [0.3, 0.7]],
                         "typeii": {"X": X, "eta": eta}})
        assert run(["integral", "--config", cfg, "--out", str(tmp_path)]) == 2

    TYPEII_CFG = {"intervals": [[0.4, 0.5], [0.3, 0.7]], "target_sum": 1.0,
                  "typeii": {"X": 1000, "eta": 0.5}, "field": FIELD3}

    @staticmethod
    def _forbid_work(monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("integral work ran before validation")
        monkeypatch.setattr(cli, "polytope_integral", work)
        monkeypatch.setattr(cli, "typeii_density_check", work)

    def test_valid_typeii_config_reaches_work(self, tmp_path, monkeypatch):
        self._forbid_work(monkeypatch)
        cfg = write_cfg(tmp_path, "c.json", self.TYPEII_CFG)
        with pytest.raises(AssertionError, match="work ran"):
            run(["integral", "--config", cfg, "--out", str(tmp_path)])

    @pytest.mark.parametrize("change, message", [
        ({"typeii": {"X": "1000", "eta": 0.5}}, "typeii 'X' must be an integer, not '1000'"),
        ({"typeii": {"X": 1000.7, "eta": 0.5}}, "typeii 'X' must be an integer, not 1000.7"),
        ({"typeii": {"X": True, "eta": 0.5}}, "typeii 'X' must be an integer, not True"),
        ({"typeii": {"X": 1000, "eta": math.nan}}, "typeii 'eta' must be a finite number"),
        ({"typeii": {"X": 1000, "eta": "0.5"}}, "typeii 'eta' must be a finite number"),
        ({"target_sum": math.nan}, "'target_sum' must be a finite number"),
        ({"target_sum": math.inf}, "'target_sum' must be a finite number"),
        ({"typeii": {"X": 1000, "eta": 0.5, "zz": 1}}, "unknown typeii keys: ['zz']"),
        ({"typeii": {"X": 1000}}, "typeii block is missing 'eta'"),
        ({"typeii": None}, "'typeii' must be an object"),
        ({"field": None}, "config needs a 'field' object"),
        ({"field": {"f": [-2, 0, 0, 1]}}, "config needs a 'field' object"),
    ], ids=["X-string", "X-float", "X-bool", "eta-nan", "eta-string", "target-nan",
            "target-inf", "unknown-key", "missing-eta", "typeii-null", "field-null",
            "field-without-k"])
    def test_integral_typeii_bad_input(self, tmp_path, capsys, monkeypatch,
                                       change, message):
        self._forbid_work(monkeypatch)
        cfg = write_cfg(tmp_path, "c.json", {**self.TYPEII_CFG, **change})
        assert run(["integral", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_integral_requires_target_sum(self, tmp_path, capsys, monkeypatch):
        # the sum of the lower ends, once the default, makes every slice a point
        self._forbid_work(monkeypatch)
        without = {k: v for k, v in self.TYPEII_CFG.items() if k != "target_sum"}
        for body in (without, {"intervals": [[0.1, 0.5], [0.2, 0.6], [0.3, 0.7]]}):
            cfg = write_cfg(tmp_path, "c.json", body)
            assert run(["integral", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert "integral config needs 'target_sum'" in capsys.readouterr().err

    def test_selftest_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run(["lattice", "--selftest"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("samples, code", [(0, 2), (16_383, 2), (16_384, 0)])
    def test_mc_samples_floor(self, tmp_path, samples, code):
        # 64 Monte Carlo slabs of at least 256 samples each (n - k = 3)
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}, "X": 6,
                         "p_cut": 100, "mc_samples": samples})
        out = tmp_path / "out"
        assert run(["theorem", "--config", cfg, "--out", str(out)]) == code
        if code == 0:
            data = json.loads((out / "theorem.json").read_text())
            assert data["config"]["mc_samples"] == samples

    def test_divisor_budget_exceeded(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 40, "e": 1})
        assert run(["divisor", "--config", cfg, "--out", str(tmp_path),
                    "--budget", "1000"]) == 3

    @pytest.mark.parametrize("cfg", [
        {"field": FIELD3, "X": 10, "e": 3},
        {"field": FIELD3, "X": 10, "e": "1"},
        {"field": FIELD3, "X": 10, "e": 1.5},
        {"field": FIELD3, "X": 0, "e": 1},
        {"field": FIELD3, "e": 1},
        {"field": FIELD3, "X": 10, "e": 1, "seed": 3},
        {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}, "X": 10, "e": 1},
    ])
    def test_divisor_bad_input(self, tmp_path, cfg):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run(["divisor", "--config", path, "--out", str(tmp_path)]) == 2

    THEOREM_CFG = {"field": FIELD3, "X": 20, "p_cut": 300, "seed": 7}

    @staticmethod
    def _forbid_count(monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("observed_prime_count ran before validation")
        monkeypatch.setattr(experiments, "observed_prime_count", work)

    def test_valid_theorem_config_reaches_count(self, tmp_path, monkeypatch):
        self._forbid_count(monkeypatch)
        cfg = write_cfg(tmp_path, "c.json", self.THEOREM_CFG)
        with pytest.raises(AssertionError, match="observed_prime_count ran"):
            run(["theorem", "--config", cfg, "--out", str(tmp_path)])

    @pytest.mark.parametrize("change, message", [
        ({"field": {"f": [-4, 0, 0, 0, 1], "k": 1}}, "X^4 - (4) factors: 4 = b^2"),
        ({"X": 8.5}, "'X' must be an integer, not 8.5"),
        ({"X": math.nan}, "'X' must be an integer, not nan"),
        ({"X": "80"}, "'X' must be an integer, not '80'"),
        ({"X": True}, "'X' must be an integer, not True"),
        ({"p_cut": 1e4}, "'p_cut' must be an integer, not 10000.0"),
        ({"seed": "7"}, "'seed' must be an integer, not '7'"),
        ({"mc_samples": 4e5}, "'mc_samples' must be an integer, not 400000.0"),
        ({"eta1": math.nan}, "'eta1' must be a finite number"),
        ({"eta2": "0.05"}, "'eta2' must be a finite number"),
        ({"box": [[1, 20.5], [1, 20]]}, "'box' must be a list of [lo, hi] integer pairs"),
        ({"box": [[False, 20], [1, 20]]}, "'box' must be a list of [lo, hi] integer pairs"),
        ({"box": [[1, 20, 3], [1, 20]]}, "'box' must be a list of [lo, hi] integer pairs"),
        ({"p_cut": 50}, "p_cut must be at least 100"),
    ], ids=["x4-4", "X-float", "X-nan", "X-string", "X-bool", "pcut-float", "seed-string",
            "mc-float", "eta1-nan", "eta2-string", "box-float", "box-bool", "box-triple",
            "pcut-floor-before-count"])
    def test_theorem_bad_input(self, tmp_path, capsys, monkeypatch, change, message):
        self._forbid_count(monkeypatch)
        cfg = write_cfg(tmp_path, "c.json", {**self.THEOREM_CFG, **change})
        assert run(["theorem", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_typei_bad_input(self, tmp_path, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("typei work ran before validation")
        monkeypatch.setattr(cli, "typei_discrepancy", work)
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 25.0})
        assert run(["typei", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'X' must be an integer, not 25.0" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"d_lo": 16.9, "d_hi": "32"}, "'d_lo' must be an integer, not 16.9"),
        ({"d_hi": "32"}, "'d_hi' must be an integer, not '32'"),
        ({"d_lo": True}, "'d_lo' must be an integer, not True"),
    ], ids=["dlo-float", "dhi-string", "dlo-bool"])
    def test_typei_block_bounds_not_truncated(self, tmp_path, capsys, monkeypatch,
                                              change, message):
        def work(*args, **kwargs):
            raise AssertionError("typei work ran before validation")
        monkeypatch.setattr(cli, "typei_discrepancy", work)
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 25, **change})
        assert run(["typei", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"X": 3.7}, "'X' must be an integer, not 3.7"),
        ({"X": "4"}, "'X' must be an integer, not '4'"),
        ({"X": 4, "max_rows": 10.5}, "'max_rows' must be an integer, not 10.5"),
        ({"box": [[1, 3.5], [1, 3]]}, "'box' must be a list of [lo, hi] integer pairs"),
        ({"box": [[1, "3"], [1, 3]]}, "'box' must be a list of [lo, hi] integer pairs"),
        ({"box": [[1, 3, 5], [1, 3]]}, "'box' must be a list of [lo, hi] integer pairs"),
    ], ids=["X-float", "X-string", "max-rows-float", "box-float", "box-string",
            "box-triple"])
    def test_norms_bad_input(self, tmp_path, capsys, change, message):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, **change})
        out = tmp_path / "out"
        assert run(["norms", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, message", [
        ("norms", {"field": FIELD3, "box": [[5, 1], [1, 3]]},
         "'box' must be a list of [lo, hi] integer pairs, lo <= hi"),
        ("norms", {"field": FIELD3, "X": -4}, "'X' must be at least 1, not -4"),
        ("norms", {"field": FIELD3, "X": 0}, "'X' must be at least 1, not 0"),
        ("norms", {"field": FIELD3, "X": 4, "max_rows": -1},
         "'max_rows' must be at least 0, not -1"),
        ("theorem", {"field": FIELD3, "X": 20, "box": [[9, 3], [1, 5]]},
         "'box' must be a list of [lo, hi] integer pairs, lo <= hi"),
        ("lattice", {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}, "v": [3.7, -2, 5, 1]},
         "'v' entry must be an integer, not 3.7"),
        ("lattice", {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}}, "'v' must be a list, not None"),
        ("census", {"field": FIELD3, "primes": [4]}, "'primes' entries must be primes"),
        ("census", {"field": FIELD3, "primes": [3.0]}, "'primes' entry must be an integer"),
        ("census", {"field": FIELD3, "census": "skew", "B": 20.9},
         "'B' must be an integer, not 20.9"),
        ("census", {"field": FIELD3, "census": "skew", "B": 0}, "'B' must be at least 1"),
        ("census", {"field": FIELD3, "census": "skew", "samples": "500"},
         "'samples' must be an integer, not '500'"),
        ("census", {"field": FIELD3, "census": "skew", "samples": 0},
         "'samples' must be at least 1"),
        ("census", {"field": FIELD3, "census": "skew", "seed": 1.5},
         "'seed' must be an integer, not 1.5"),
        ("census", {"field": FIELD3, "census": "skew", "kappas": [0.5, math.inf]},
         "'kappas' entry must be a finite number, not inf"),
        ("census", {"field": FIELD3, "census": "skew", "kappas": 0.5},
         "'kappas' must be a list, not 0.5"),
        ("buchstab", '{"range": [50, 150], "z1": 3, "z2": 1e400}',
         "'z2' must be a finite number, not inf"),
        ("buchstab", {"range": [50, 150], "z1": "3", "z2": 11},
         "'z1' must be a finite number, not '3'"),
        ("buchstab", {"range": [50, 150], "z2": 11}, "'z1' must be a finite number, not None"),
        ("buchstab", {"values": [12, 13.5], "z1": 3, "z2": 11},
         "'values' entry must be an integer, not 13.5"),
        ("buchstab", {"range": [50, "150"], "z1": 3, "z2": 11},
         "'range' entry must be an integer, not '150'"),
        ("buchstab", {"range": [150, 50], "z1": 3, "z2": 11},
         "'range' must be [lo, hi] with lo <= hi, not [150, 50]"),
        ("buchstab", {"field": FIELD3, "box": [[1, 20], [20, 1]], "z1": 3, "z2": 11},
         "'box' must be a list of [lo, hi] integer pairs, lo <= hi"),
        ("theorem", {"field": FIELD3, "X": 20, "threads": 0},
         "'threads' must be at least 1, not 0"),
        ("typei", {"field": FIELD3, "X": 25, "d_lo": 64, "d_hi": 32},
         "'d_hi' must be at least 'd_lo' = 64, not 32"),
        ("buchstab", {"range": [50, 150], "z1": 11, "z2": 3},
         "'z2' must be at least 'z1' = 11.0, not 3.0"),
        ("integral", {"intervals": [], "target_sum": 1.0}, "integral config needs 'intervals'"),
        ("census", {"field": FIELD3, "primes": []}, "'primes' entries must be primes"),
        ("census", {"field": FIELD3, "census": "skew", "kappas": [0.5, -1]},
         "'kappas' entry must be at least 0, not -1.0"),
        ("theorem", {"field": {"f": [-2, 0, 0, 0, 1], "k": 1}, "X": 6, "seed": -1},
         "'seed' must be at least 0, not -1"),
        ("theorem", {"field": FIELD3, "X": 20, "seed": 2**128},
         f"'seed' must be at most {2**128 - 1}, not {2**128}"),
        ("census", {"field": FIELD3, "census": "skew", "seed": -5},
         "'seed' must be at least 0, not -5"),
    ], ids=["norms-box-inverted", "norms-X-negative", "norms-X-zero", "norms-max-rows",
            "theorem-box-inverted", "lattice-v-float", "lattice-v-missing",
            "census-composite", "census-prime-float", "census-B-float", "census-B-zero",
            "census-samples-string", "census-samples-zero", "census-seed-float",
            "census-kappa-inf", "census-kappas-scalar", "buchstab-z2-1e400",
            "buchstab-z1-string", "buchstab-z1-missing", "buchstab-values-float",
            "buchstab-range-string", "buchstab-range-inverted", "buchstab-box-inverted",
            "theorem-threads-zero", "typei-dlo-above-dhi", "buchstab-z1-above-z2",
            "integral-intervals-empty", "census-primes-empty", "census-kappa-negative",
            "theorem-mc-seed-negative", "theorem-seed-2-128", "census-seed-negative"])
    def test_config_values_typed(self, tmp_path, capsys, monkeypatch, command, cfg, message):
        def work(*args, **kwargs):
            raise AssertionError(f"{command} work ran before validation")
        for name in ("theorem_check", "wedge", "fp_wedge_census_report", "skew_census",
                     "buchstab_report", "norm_form", "typei_discrepancy", "polytope_integral"):
            monkeypatch.setattr(cli, name, work)
        path = tmp_path / "c.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # checks inside the library raise ValidationError, so these exit 2 too
    @pytest.mark.parametrize("command, cfg, message", [
        ("theorem", {"field": FIELD3, "p_cut": 300}, "config needs 'X'"),
        ("theorem", {"X": 20}, "config needs a 'field' object"),
        ("theorem", {"field": {"f": [-2, 0, 0, 1], "k": "1"}, "X": 20},
         "config needs a 'field' object"),
        ("theorem", {"field": FIELD3, "X": 20, "p_cut": 50}, "p_cut must be at least 100"),
        ("typei", {"field": FIELD3, "X": 25, "d_lo": 0}, "'d_lo' must be at least 1, not 0"),
        ("lattice", {"field": FIELD3, "v": [1, 2]}, "operands must have length 3"),
        ("integral", {"intervals": 5, "target_sum": 1.0}, "integral config needs 'intervals'"),
        ("integral", {"intervals": [[0.4]], "target_sum": 1.0},
         "integral config needs 'intervals'"),
        ("integral", {"intervals": [["a", 0.5]], "target_sum": 1.0},
         "'intervals' entry must be a finite number, not 'a'"),
        ("integral", {"intervals": [[0.5, 0.4]], "target_sum": 1.0},
         "exponent intervals must satisfy 0 < lo <= hi"),
        ("buchstab", {"values": [0, 5], "z1": 2, "z2": 5}, "0 has no least prime factor"),
        ("sseries", {"field": {**FIELD3, "zz": 1}}, "unknown field keys: ['zz']"),
        ("census", {"field": {"f": [-2, 0, 0, 1], "k": 0}, "census": "skew"},
         "the skew census needs k >= 1"),
    ], ids=["theorem-X-missing", "theorem-field-missing", "theorem-k-string",
            "theorem-pcut-floor", "typei-dlo-zero", "lattice-v-short",
            "integral-intervals-scalar", "integral-interval-single",
            "integral-interval-string", "integral-interval-inverted", "buchstab-zero",
            "field-unknown-key", "skew-census-k-zero"])
    def test_library_checks_are_invalid_input(self, tmp_path, capsys, command, cfg,
                                              message):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    # each cap reaches the (stubbed) work at the cap itself and exits 3 one past it
    @pytest.mark.parametrize("command, make, cap, work", [
        ("theorem", lambda c: {"field": FIELD3, "X": 20, "p_cut": c}, series.P_CUT_CAP,
         (cli, "theorem_check")),
        ("sseries", lambda c: {"field": FIELD3, "p_cut": c}, series.P_CUT_CAP,
         (cli, "singular_series")),
        ("theorem", lambda c: {"field": FIELD3, "X": 20, "mc_samples": c},
         cli.MC_SAMPLES_CAP, (cli, "theorem_check")),
        ("typei", lambda c: {"field": FIELD3, "X": 25, "box": [[1, c], [1, 1]],
                             "point_budget": 100}, 100, (experiments, "bad_primes")),
        ("typei", lambda c: {"field": FIELD3, "X": 25, "d_hi": c}, cli.TYPEI_D_CAP,
         (cli, "typei_discrepancy")),
        ("buchstab", lambda c: {"range": [1, c], "z1": 3, "z2": 11},
         cli.BUCHSTAB_VALUES_CAP, (cli, "buchstab_report")),
        ("buchstab", lambda c: {"field": FIELD3, "box": [[1, c], [1, 1]], "z1": 3, "z2": 11},
         cli.BUCHSTAB_VALUES_CAP, (cli, "buchstab_report")),
        ("buchstab", lambda c: {"range": [50, 150], "z1": 3, "z2": c},
         cli.BUCHSTAB_Z2_CAP, (cli, "buchstab_report")),
        ("census", lambda c: {"field": FIELD3, "census": "skew", "samples": c},
         cli.SKEW_SAMPLES_CAP, (cli, "skew_census")),
        ("integral", lambda c: {"intervals": [[0.4, 0.5], [0.3, 0.7]], "target_sum": 1.0,
                                "typeii": {"X": 2, "eta": c / 2}},
         experiments.TYPEII_WINDOW_CAP, (experiments, "window_factorizations")),
    ], ids=["theorem-pcut", "sseries-pcut", "mc-samples", "typei-box-points", "typei-dhi",
            "buchstab-range", "buchstab-box", "buchstab-z2", "skew-samples", "typeii-window"])
    def test_cap_boundary(self, tmp_path, capsys, monkeypatch, command, make, cap, work):
        def stub(*args, **kwargs):
            raise AssertionError("work ran")
        monkeypatch.setattr(*work, stub)
        out = str(tmp_path / "out")
        with pytest.raises(AssertionError, match="work ran"):
            run([command, "--config", write_cfg(tmp_path, "c.json", make(cap)), "--out", out])
        path = write_cfg(tmp_path, "c.json", make(cap + 1))
        assert run([command, "--config", path, "--out", out]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_internal_error_exits_1_with_traceback(self, tmp_path):
        # sitecustomize runs before the CLI module and plants a bug in the work
        (tmp_path / "sitecustomize.py").write_text(
            "import normform.experiments\n"
            "def theorem_check(cfg):\n"
            "    raise TypeError('planted internal bug')\n"
            "normform.experiments.theorem_check = theorem_check\n")
        cfg = write_cfg(tmp_path, "c.json", self.THEOREM_CFG)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(tmp_path), str(ROOT / "src")])}
        proc = subprocess.run(
            [sys.executable, "-m", "normform.cli", "theorem", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert "TypeError: planted internal bug" in proc.stderr
        assert "invalid input" not in proc.stderr

    # an explicit 0 is read, never replaced by the default or the config
    def test_census_seed_zero_is_kept(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "census": "skew", "B": 5,
                                             "samples": 20, "kappas": [0.5], "seed": 3})
        out = tmp_path / "out"
        assert run(["census", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        assert json.loads((out / "census.json").read_text())["params"][0]["seed"] == 0

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_census_small_budget_is_exceeded(self, tmp_path, budget):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "primes": [3]})
        assert run(["census", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--budget", budget]) == 3

    def test_norms_budget_zero_is_exceeded(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 2})
        assert run(["norms", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--budget", "0"]) == 3

    def test_sseries_pcut_zero_names_the_flag(self, tmp_path, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("sseries work ran before validation")
        monkeypatch.setattr(cli, "singular_series", work)
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "p_cut": 200})
        assert run(["sseries", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--pcut", "0"]) == 2
        assert "--pcut must be at least 100, not 0" in capsys.readouterr().err

    def test_sseries_bad_input(self, tmp_path, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("sseries work ran before validation")
        monkeypatch.setattr(cli, "singular_series", work)
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "p_cut": 1e4})
        assert run(["sseries", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'p_cut' must be an integer, not 10000.0" in capsys.readouterr().err


class TestSubcommands:
    def test_theorem_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": FIELD3, "X": 15, "p_cut": 300, "seed": 2})
        out = tmp_path / "out"
        assert run(["theorem", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "theorem.json").read_text())
        assert data["observed"] > 0 and data["version"]
        assert "runtime_s" not in data  # volatile data stays off disk
        stdout = json.loads(capsys.readouterr().out)
        assert "runtime_s" in stdout
        assert (out / "theorem.csv").read_text().startswith("slab,")

    def test_theorem_with_five_free_coordinates(self, tmp_path):
        # x^6 - 2, k = 1: m = 5, past the reach of a dense interpolation solve
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": {"f": [-2, 0, 0, 0, 0, 0, 1], "k": 1}, "X": 12})
        out = tmp_path / "out"
        assert run(["theorem", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "theorem.json").read_text())["observed"] > 0

    def test_sseries(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "p_cut": 200})
        out = tmp_path / "out"
        assert run(["sseries", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "sseries.json").read_text())
        assert data["value"] > 0 and data["tail_bound"] > 0

    def test_sseries_computes_local_factors_once(self, tmp_path, monkeypatch):
        calls = []
        real = series._local_factor_data

        def counted(ctx, p_cut):
            calls.append(p_cut)
            return real(ctx, p_cut)

        monkeypatch.setattr(series, "_local_factor_data", counted)
        series._local_factors.cache_clear()
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "p_cut": 300})
        assert run(["sseries", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        series._local_factors.cache_clear()
        assert calls == [300]

    def test_lattice(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": {"f": [-2, 0, 0, 0, 1], "k": 1},
                         "v": [3, -2, 5, 1]})
        out = tmp_path / "out"
        assert run(["lattice", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "lattice.json").read_text())
        assert data["agree"] is True

    def test_census(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": {"f": [-2, 0, 0, 0, 0, 0, 0, 1], "k": 2},
                         "census": "fp_wedge", "primes": [3, 5]})
        out = tmp_path / "out"
        assert run(["census", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "census.json").read_text())
        assert [r["count"] for r in data["rows"]] == [3, 5]

    def test_typei(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"field": FIELD3, "X": 30, "d_lo": 16, "d_hi": 32})
        out = tmp_path / "out"
        assert run(["typei", "--config", cfg, "--out", str(out)]) == 0

    def test_integral(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"intervals": [[2.5, 3.5]], "target_sum": 3.0})
        out = tmp_path / "out"
        assert run(["integral", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "integral.json").read_text())
        assert abs(data["value"] - 1 / 3) < 1e-12

    def test_integral_logs_stages(self, tmp_path, caplog):
        cfg = write_cfg(tmp_path, "c.json", {
            "intervals": [[0.4, 0.5], [0.3, 0.7]], "target_sum": 1.0,
            "typeii": {"X": 20000, "eta": 0.5}, "field": FIELD3})
        assert run(["integral", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.INFO, logger="normform"):
            assert run(["integral", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "integral.json").read_bytes()
        assert report == (tmp_path / "quiet" / "integral.json").read_bytes()
        data = json.loads(report)["typeii"]
        lines = [r.getMessage() for r in caplog.records if r.name == "normform"]
        assert [m.split(":")[0] for m in lines] == [
            "slice integral", "Type II window", "Type II ideal level"]
        assert all(re.search(r" \d+\.\d{3} s$", m) for m in lines)
        assert lines[1].startswith("Type II window: 10001 integers factored, ")
        assert f"{data['observed']} ordered tuples counted" in lines[1]
        pairs = data["details"]["ideal_level"]["observed_ordered_pairs"]
        assert f"{pairs} ordered prime-ideal pairs" in lines[2]

    def test_log_level_per_call_root_untouched(self, tmp_path, monkeypatch, caplog):
        # each call reads its own NORMFORM_LOG; the root logger keeps its handlers
        logger = logging.getLogger("normform")
        saved = logger.level, logger.handlers[:]
        root_handlers = logging.getLogger().handlers[:]
        cfg = write_cfg(tmp_path, "c.json", {"intervals": [[2.5, 3.5]], "target_sum": 3.0})
        try:
            for level, logged in (("WARNING", False), ("INFO", True), ("warning", False)):
                monkeypatch.setenv("NORMFORM_LOG", level)
                caplog.clear()
                assert run(["integral", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
                assert [r.getMessage().startswith("slice integral")
                        for r in caplog.records] == [True] * logged
            assert logging.getLogger().handlers == root_handlers
            assert len(logger.handlers) == 1
        finally:
            logger.setLevel(saved[0])
            logger.handlers[:] = saved[1]

    def test_buchstab(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        {"range": [100, 200], "z1": 5, "z2": 13})
        out = tmp_path / "out"
        assert run(["buchstab", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "buchstab.json").read_text())
        assert data["residual"] == 0

    def test_divisor(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 40, "e": 1})
        out = tmp_path / "out"
        assert run(["divisor", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "divisor.json").read_text())
        assert "runtime_s" not in data
        assert "runtime_s" in json.loads(capsys.readouterr().out)
        details = data["details"]
        assert data["observed"] == details["surrogate_sum_tau_int_pow_e"] > 0
        skipped = details["points_skipped_by_reason"]
        assert details["ideal_points"] + sum(skipped.values()) == 40 * 40
        assert details["ideal_sum"] >= details["ideal_points"]

    def test_norms(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"field": FIELD3, "X": 4})
        out = tmp_path / "out"
        assert run(["norms", "--config", cfg, "--out", str(out)]) == 0
        csv_text = (out / "norms.csv").read_text()
        assert csv_text.splitlines()[0] == "x1,x2,norm"


class TestDeterminism:
    @pytest.mark.parametrize("command,cfg", RUNS)
    def test_runtime_only_on_stdout(self, tmp_path, capsys, command, cfg):
        cpath = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert run([command, "--config", cpath, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["runtime_s"] >= 0
        reports = sorted(out.iterdir())
        assert reports and all(b"runtime_s" not in p.read_bytes() for p in reports)

    @pytest.mark.parametrize("command,cfg", RUNS)
    def test_byte_identical_reruns(self, tmp_path, command, cfg):
        cpath = write_cfg(tmp_path, "c.json", cfg)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run([command, "--config", cpath, "--out", str(out),
                        "--seed", "7", "--threads", "1"]) == 0
            blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outs.append(blobs)
        assert outs[0] == outs[1]


QUARTIC_229 = {"f": [1, 1, 0, 0, 1], "k": 1}  # disc 229, a large bad prime
SEPTIC_K2 = {"f": [-2, 0, 0, 0, 0, 0, 0, 1], "k": 2}


class TestLargeBadPrime:
    @pytest.mark.parametrize("command, cfg", [
        ("theorem", {"field": QUARTIC_229, "X": 20, "p_cut": 1000}),
        ("sseries", {"field": QUARTIC_229, "p_cut": 1000}),
    ])
    def test_runs(self, tmp_path, command, cfg):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path / "out")]) == 0


class TestSepticK2:
    """The paper's smallest k = 2 case: x^7 - 2, where 7 * 7 = 49 >= 22 * 2
    puts the pure septic in the lower-bound regime."""

    def test_theorem_lower_bound(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", {"field": SEPTIC_K2, "X": 8})
        out = tmp_path / "out"
        assert run(["theorem", "--config", path, "--out", str(out),
                    "--threads", "2"]) == 0
        report = json.loads((out / "theorem.json").read_text())
        assert report["details"]["regime"] == "lower_bound"
        assert report["observed"] == 2408

    def test_sseries_sha256(self, tmp_path):
        # the bytes the brute-force local factors at the bad primes 2 and 7
        # produced, before the closed form served them
        path = write_cfg(tmp_path, "c.json", {"field": SEPTIC_K2, "p_cut": 10_000})
        out = tmp_path / "out"
        assert run(["sseries", "--config", path, "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == {
            "sseries.csv": "8856b9fd35ab43bb40381f499d067f644bdbb34e1d390a37f6cfb516a43b99ab",
            "sseries.json": "32b592e01009a126be85c76872806325ef0e29e63b3dd42d8c9674aaa336f943",
        }


class TestShippedConfigBytes:
    """Report bytes of the shipped configs match the pinned sha256 values."""

    def test_every_config_is_pinned(self):
        shipped = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
        assert shipped == sorted(CONFIG_REFS)

    @pytest.mark.parametrize("name", sorted(CONFIG_REFS))
    def test_report_sha256(self, tmp_path, name):
        ref = CONFIG_REFS[name]
        out = tmp_path / "out"
        assert run([ref["command"], "--config", str(ROOT / "configs" / name),
                    "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == ref["sha256"]


_plain_sum = builtins.sum


def compensated_sum(iterable, start=0):
    """builtins.sum as Python 3.12+ adds floats: Neumaier-compensated."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return _plain_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


class TestCompensatedSum:
    """Report bytes do not depend on how builtins.sum adds floats."""

    def test_typei_report_sha256(self, tmp_path, monkeypatch):
        assert compensated_sum([0.1, 0.2, 0.3]) == 0.6 != 0.1 + 0.2 + 0.3
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        ref = CONFIG_REFS["typei_cubic.json"]
        out = tmp_path / "out"
        assert run(["typei", "--config", str(ROOT / "configs" / "typei_cubic.json"),
                    "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == ref["sha256"]


def readme_key_tables() -> dict:
    """{subcommand: {key: row cells}} of the README's config-key tables."""
    text = (ROOT / "README.md").read_text()
    tables, command = {}, None
    for line in text[text.index("### Config keys"):].splitlines():
        if m := re.match(r"`(\w+)`( takes|:| \()", line):
            command = m.group(1)
        elif line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            tables.setdefault(command, {})[re.match(r"`(\w+)`", cells[0])[1]] = cells
    return tables


def shown(value) -> str:
    """A declared value as the README writes it: 10^4 and 2·10^5 for round ints."""
    digits = str(value)
    zeros = len(digits) - len(digits.rstrip("0"))
    if type(value) is not int or zeros < 4:
        return json.dumps(value)
    return f"10^{zeros}" if value == 10**zeros else f"{value // 10**zeros}·10^{zeros}"


def test_readme_tables_match_declarations():
    tables = readme_key_tables()
    assert set(tables) == set(cli._COMMANDS)
    for command, (keys, _run) in cli._COMMANDS.items():
        rows = {**(tables["theorem"] if command == "typei" else {}), **tables[command]}
        assert list(rows) == list(keys), command
        for k, key in keys.items():
            name, _type, _range, default, cap, flag = rows[k]
            assert ("(flag only)" in name) == key.flag_only, (command, k)
            assert flag == (f"`--{key.flag}`" if key.flag else "—"), (command, k)
            assert key.cap is None or cap == shown(key.cap), (command, k)
            if key.default is ...:
                assert default == "required", (command, k)
            elif key.default not in (None, ()):
                assert default == shown(key.default), (command, k)


# --- config fuzzer ----------------------------------------------------------------

# the small runs, with the integral run given TYPEII_CFG's typeii block and field
FUZZ_RUNS = [(c, TestExitCodes.TYPEII_CFG if c == "integral" else cfg) for c, cfg in RUNS]
DROP = object()
# written into the JSON text as NaN, 1e400 and -1e400
NAN, INF, NEG_INF = "@nan@", "@inf@", "@-inf@"
MUTATIONS = [DROP, None, True, "1", 1.5, NAN, INF, NEG_INF, -1, 0, 10**30, [], {}]


def key_paths(cfg: dict, prefix=()) -> list[tuple]:
    """Every key path of cfg, nested objects (field, typeii) included."""
    paths = []
    for k, v in cfg.items():
        paths.append(prefix + (k,))
        if isinstance(v, dict):
            paths += key_paths(v, prefix + (k,))
    return paths


def mutated_json(cfg: dict, path: tuple, value) -> str:
    cfg = json.loads(json.dumps(cfg))
    inner = cfg
    for k in path[:-1]:
        inner = inner[k]
    if value is DROP:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    text = json.dumps(cfg)
    for mark, literal in ((NAN, "NaN"), (INF, "1e400"), (NEG_INF, "-1e400")):
        text = text.replace(json.dumps(mark), literal)
    return text


FUZZ_CASES = [(command, cfg, path) for command, cfg in FUZZ_RUNS for path in key_paths(cfg)]


def fuzz_child(tmp: str) -> None:
    """cli.main on fuzzed configs, in a process capped at 2 GB of address
    space: each exits 0, 2 or 3, and never with an exception.  With more
    examples than FUZZ_CASES x MUTATIONS, hypothesis runs each pair once."""
    import contextlib
    import io
    import resource

    from hypothesis import Phase, given, settings
    from hypothesis import strategies as st

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    path = Path(tmp) / "c.json"

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None,
              phases=[Phase.generate])
    @given(st.sampled_from(FUZZ_CASES), st.sampled_from(MUTATIONS))
    def fuzz(case, value):
        command, cfg, key = case
        path.write_text(mutated_json(cfg, key, value))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3), (command, key, value, code)

    fuzz()


def test_config_fuzz_exits_0_2_or_3(tmp_path):
    # one child runs every example; a missed cap fails it by MemoryError or timeout
    assert len(FUZZ_CASES) * len(MUTATIONS) == 624 < 1000
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_cli; test_cli.fuzz_child({str(tmp_path)!r})"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
