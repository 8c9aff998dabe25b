import collections
import csv
import json
import math

import numpy as np
import pytest

from nomagsc import distributions, figures, sweep
from nomagsc.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from nomagsc.sweep import CSV_COLUMNS

CONFIG = {
    "pair": {"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1},
    "n": [1, 2],
    "snr_db": [0, 10],
    "theta": [1.0],
    "power": {"a_s": 0.24},
    "methods": ["exact", "oma"],
}

SEARCH = {"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


class TestSweepCommand:
    def test_csv_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sweep", config_path, "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert len(parsed) == 9  # header + 2 snr x 2 n x 2 methods
        assert "wrote 8 rows" in capsys.readouterr().out

    def test_json_output(self, config_path, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["sweep", config_path, "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())) == 8

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = main(["sweep", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"pair": CONFIG["pair"]}))
        code = main(["sweep", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_unwritable_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert main(["sweep", config_path, "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sim": {"samples": 1000, "sead": 1}},
            {"sim": {"samples": 0}},
            {"sim": {"samples": 1}},
            {"power": {"search": {"a_min": 0.05, "a_mx": 0.3}}},
            {"power": {"search": {"a_min": 0.05, "a_max": 0.3, "step": -1}}},
            {"n": 5},
            {"n": ["a"]},
            {"snr_db": None},
            {"power": 5},
            {"power": {"a_s": None}},
            {"methods": 5},
            {"n": [2.7, True]},
            {"n": [True]},
            {"pair": {**CONFIG["pair"], "N_s": 4.9}},
            {"pair": {**CONFIG["pair"], "N_w": True}},
            {"snr_db": [True]},
            {"theta": [True]},
            {"block_length": True},
            {"power": {"a_s": True}},
            {"snr_db": ["10"]},
            {"sim": {"samples": True}},
            {"sim": {"samples": 1e4 + 0.5}},
            {"sim": {"seed": 2.5}},
            {"sim": {"seed": True}},
            {"sim": {"seed": -1}},
            {"sim": {"seed": 2**64}},
            {"sim": {"batch": "4096"}},
            {"power": {"search": {"step": True}}},
            {"power": {"search": {"a_min": "0.05"}}},
            {"power": {"search": {"a_max": True}}},
            {"block_lenght": 1.0},
            {"pair": {**CONFIG["pair"], "omega": 1.0}},
            {"power": {"a_s": 0.24, "serach": {}}},
            {"power": {"a_s": 0.24, "search": {"a_min": 0.05, "a_max": 0.3}}},
            {"power": {}},
            {"pair": {**CONFIG["pair"], "omega_w": 1.0}},
            {"pair": {**CONFIG["pair"], "omega_w": 2.0}},
            {"pair": {**CONFIG["pair"], "N_s": 17}},
            {"n": [0]},
        ],
    )
    def test_bad_sim_or_search_is_config_error(self, overrides, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, **overrides}))
        code = main(["sweep", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_sim_batch_is_config_error(self, tmp_path, capsys):
        # the batch size is the constant montecarlo.BATCH, not a setting
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({**CONFIG, "sim": {"samples": 1000, "batch": 262144}}))
        code = main(["sweep", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'batch'" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"theta": [math.nan]},
            {"theta": [math.inf]},
            {"snr_db": [math.inf]},
            {"pair": {**CONFIG["pair"], "omega_s": math.inf}},
            {"pair": {**CONFIG["pair"], "omega_w": math.nan}},
        ],
    )
    def test_non_finite_input_is_rejected(self, overrides, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, **overrides}))
        code = main(["sweep", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_prints_per_point_optimum(self, tmp_path, capsys):
        cfg = {
            **CONFIG,
            "n": [4],
            "snr_db": [20],
            "power": {"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}},
        }
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimize", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("rho_db")
        assert len(lines) == 2
        assert " 0.24 " in lines[1]

    def test_points_compute_each_density_value_once(self, tmp_path, monkeypatch, capsys):
        # two points of one n read the same laws; the command runs them in
        # one reuse_densities block, as a sweep does
        computed = collections.Counter()
        for name in ("gsc_pdf", "min_pdf_general"):
            real = getattr(distributions, name)

            def counted(law, x, real=real):
                computed.update((law, v) for v in np.atleast_1d(x).tolist())
                return real(law, x)

            monkeypatch.setattr(distributions, name, counted)
        cfg = {**CONFIG, "n": [2], "power": SEARCH}
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimize", str(path)]) == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        assert computed and max(computed.values()) == 1

    @pytest.mark.usefixtures("fail_at_0db")
    def test_failed_search_is_numerical_failure(self, tmp_path, capsys):
        cfg = {**CONFIG, "n": [4], "power": {"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}}}
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimize", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "a_s=0.08" in err

    def test_fixed_split_rejected(self, config_path, capsys):
        assert main(["optimize", config_path]) == EXIT_CONFIG
        assert "search" in capsys.readouterr().err

    def test_clamped_n_prints_as_given(self, tmp_path, capsys):
        # N_w = 2, so n = 3 combines 3 strong and 2 weak branches
        cfg = {**CONFIG, "pair": {**CONFIG["pair"], "N_w": 2}, "n": [3], "snr_db": [10],
               "power": SEARCH}
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimize", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("10 1 3 ")


@pytest.mark.parametrize(
    "argv", [["validate", "--samples", "1e5"], ["figure", "nope"], []],
    ids=["bad-option-value", "bad-figure-name", "no-command"],
)
def test_usage_error_is_config_error(argv, capsys):
    # argparse's own exit code, 2, means a numerical failure here
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sweep", "--out", "o.csv"], ["optimize"]])
def test_bad_grid_value_fails_before_any_point(command, tmp_path, monkeypatch, capsys):
    # theta = -1 is the last theta of the grid: it must fail at load, not
    # after the points at theta = 1 were evaluated
    calls = []
    evaluate_point, optimize = sweep._evaluate_point, sweep.optimize_power

    def counting(real):
        return lambda *args: calls.append(args) or real(*args)

    monkeypatch.setattr(sweep, "_evaluate_point", counting(evaluate_point))
    monkeypatch.setattr(sweep, "optimize_power", counting(optimize))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CONFIG, "theta": [1.0, -1.0], "power": SEARCH}))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(path), *command[1:]]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert calls == []


class TestValidateCommand:
    GRID = {"snr_db": (10.0,), "theta": (1.0,), "n": (1, 4), "a_s": (0.24,)}

    def test_pass_and_csv(self, tmp_path, capsys, monkeypatch):
        from nomagsc import validate as validate_mod

        monkeypatch.setattr(validate_mod, "DEFAULT_GRID", self.GRID)
        out = tmp_path / "val.csv"
        code = main(["validate", "--samples", "20000", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "12/12 checks passed" in text
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 13

    def test_z_summary(self, tmp_path, capsys, monkeypatch):
        from nomagsc import validate as validate_mod

        monkeypatch.setattr(validate_mod, "DEFAULT_GRID", self.GRID)
        out = tmp_path / "val.csv"
        main(["validate", "--samples", "20000", "--seed", "0", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3] == "12/12 checks passed"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        signed = [
            (float(r["analytic"]) - float(r["estimate"])) / float(r["std_error"])
            for r in rows
        ]
        summary = lines[-2]
        assert summary.startswith("z: max |z|=")
        fields = dict(f.split("=") for f in summary[3:].split(" ")[:4] if "=" in f)
        assert float(fields["|z|"]) == pytest.approx(max(float(r["z"]) for r in rows), abs=0.01)
        assert float(fields["mean"]) == pytest.approx(sum(signed) / len(signed), abs=1e-3)
        assert summary.endswith(f"|z|>2: {sum(abs(z) > 2 for z in signed)}/12")

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        from nomagsc import validate as validate_mod

        monkeypatch.setattr(validate_mod, "DEFAULT_GRID", self.GRID)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["validate", "--samples", "20000", "--seed", "1", "--out", str(a)])
        main(["validate", "--samples", "20000", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_failure_exit_code(self, capsys, monkeypatch):
        from nomagsc import montecarlo, validate as validate_mod

        monkeypatch.setattr(validate_mod, "DEFAULT_GRID", self.GRID)

        def broken(pair, cases, plan):
            bad = montecarlo.Estimate(999.0, 1e-6, plan.samples)
            return [dict.fromkeys(montecarlo.QUANTITIES, bad) for _ in cases]

        monkeypatch.setattr(validate_mod.montecarlo, "estimate_cases", broken)
        assert main(["validate", "--samples", "1000"]) == EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out

    def test_seed_outside_a_key_word_is_rejected(self, capsys):
        assert main(["validate", "--samples", "10", "--seed", str(2**64)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be in [0, 2**64)") and "Traceback" not in err

    def test_single_sample_fails(self, capsys):
        # one sample has no standard error: a plan needs two
        assert main(["validate", "--samples", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: samples must be >= 2, got 1") and "Traceback" not in err


class TestFigureCommand:
    def test_unknown_name_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["figure", "fig9", "--out-dir", str(tmp_path)])

    def test_fig4_low_snr_range(self, tmp_path, capsys):
        assert main(["figure", "fig4", "--out-dir", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "fig4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        snrs = {float(r["rho_db"]) for r in rows}
        assert max(snrs) <= 0.0
        assert {r["method"] for r in rows} == {"exact", "low_snr"}
        assert all(r["status"] == "ok" for r in rows)
        assert (tmp_path / "fig4.gp").exists()


class TestFigureGeneration:
    def test_fig3_high_snr_is_valid(self, tmp_path):
        # theta = 0.5 keeps nu below 1, so no row may be marked invalid
        spec = figures.figure_spec("fig3")
        assert spec.theta == (0.5,)
        paths = figures.generate_figure("fig3", str(tmp_path))
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 4 * 2  # snr x n x methods
        assert all(r["status"] == "ok" for r in rows)

    def test_fig1_series_counts(self, tmp_path):
        paths = figures.generate_figure("fig1", str(tmp_path))
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 * 4 * 3
        mc = [r for r in rows if r["method"] == "montecarlo"]
        assert all(float(r["std_error"]) > 0 for r in mc)

    def test_fig5_diff_file(self, tmp_path):
        paths = figures.generate_figure("fig5", str(tmp_path))
        diff_path = [p for p in paths if p.endswith("_diff.csv")]
        assert len(diff_path) == 1
        with open(diff_path[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 * 3 * 3
        # Jensen: ergodic bound minus EC is nonnegative everywhere
        assert all(float(r["delta_e_sum"]) >= -1e-9 for r in rows)

    def test_fig2_gap_grows_with_snr(self, tmp_path):
        paths = figures.generate_figure("fig2", str(tmp_path))
        diff_path = [p for p in paths if p.endswith("_diff.csv")][0]
        with open(diff_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        series = {}
        for r in rows:
            key = (r["theta"], r["n"])
            series.setdefault(key, []).append(
                (float(r["rho_db"]), float(r["delta_e_sum"]))
            )
        for key, pts in series.items():
            pts.sort()
            lo = [v for s, v in pts if s <= 20]
            assert all(b >= a - 1e-9 for a, b in zip(lo, lo[1:])), key
