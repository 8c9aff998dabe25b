import csv
import json
import math

import pytest

from nomagsc.montecarlo import SimPlan
from nomagsc.sweep import (
    CSV_COLUMNS,
    METHODS,
    ConfigError,
    SweepSpec,
    emit,
    load_spec,
    run_sweep,
    worker_count,
)

BASE_CONFIG = {
    "pair": {"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1},
    "n": [1, 2],
    "snr_db": [0, 10],
    "theta": [1.0],
    "power": {"a_s": 0.24},
    "methods": ["exact", "oma"],
}


def make_spec(**overrides) -> SweepSpec:
    return SweepSpec.from_dict({**BASE_CONFIG, **overrides})


class TestConfigParsing:
    def test_round_trip(self):
        spec = make_spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_search_round_trip(self):
        spec = make_spec(power={"search": {"a_min": 0.05, "a_max": 0.3, "step": 0.05}})
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_integral_floats_are_counts(self):
        spec = make_spec(
            n=[2.0], pair={**BASE_CONFIG["pair"], "N_s": 4.0}, sim={"samples": 1e4, "batch": 4096.0}
        )
        assert spec.n_values == (2,) and type(spec.n_values[0]) is int
        assert spec.antennas_strong == 4 and type(spec.antennas_strong) is int
        assert spec.sim == SimPlan(samples=10_000, batch=4096)
        assert type(spec.sim.samples) is int and type(spec.sim.batch) is int

    def test_missing_field(self):
        raw = {k: v for k, v in BASE_CONFIG.items() if k != "snr_db"}
        with pytest.raises(ConfigError, match="snr_db"):
            SweepSpec.from_dict(raw)

    def test_missing_pair_field(self):
        raw = {**BASE_CONFIG, "pair": {"N_s": 4, "omega_s": 1.0, "omega_w": 0.1}}
        with pytest.raises(ConfigError, match="N_w"):
            SweepSpec.from_dict(raw)

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="asymptotic"):
            make_spec(methods=["exact", "asymptotic"])

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="non-empty"):
            make_spec(snr_db=[])

    def test_power_needs_one_of(self):
        with pytest.raises(ConfigError, match="power"):
            make_spec(power={})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sim": {"samples": 1000, "sead": 1}},
            {"sim": {"samples": 0}},
            {"sim": [1000]},
            {"power": {"search": {"a_min": 0.05, "a_mx": 0.3}}},
            {"power": {"search": {"a_min": 0.3, "a_max": 0.05}}},
        ],
    )
    def test_bad_sim_or_search_is_config_error(self, overrides):
        with pytest.raises(ConfigError, match="sim|power.search"):
            make_spec(**overrides)

    def test_load_reports_json_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "pair": }\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            load_spec(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(str(tmp_path / "nope.json"))


class TestRunSweep:
    def test_row_cardinality_and_order(self):
        spec = make_spec(methods=["oma", "exact"])
        rows = run_sweep(spec)
        # 2 snr x 1 theta x 2 n x 2 methods
        assert len(rows) == 8
        keys = [(r.rho_db, r.theta, r.n_s, METHODS.index(r.method)) for r in rows]
        assert keys == sorted(keys)

    def test_values_match_direct_evaluation(self):
        from nomagsc.capacity import PowerSplit, QosProfile, SnrPoint, evaluate_noma

        spec = make_spec()
        rows = [r for r in run_sweep(spec) if r.method == "exact"]
        for row in rows:
            rep = evaluate_noma(
                spec.pair_for(row.n_s),
                PowerSplit(0.24),
                QosProfile(1.0),
                SnrPoint.from_db(row.rho_db),
            )
            assert row.e_strong == pytest.approx(rep.e_strong, rel=1e-12)
            assert row.e_sum == pytest.approx(rep.e_sum, rel=1e-12)

    def test_invalid_method_recorded_in_row(self):
        # nu = 2/ln2 > 1, so the high-SNR approximation must refuse
        spec = make_spec(theta=[2.0], methods=["exact", "high_snr"])
        rows = run_sweep(spec)
        assert len(rows) == 8
        for row in rows:
            if row.method == "high_snr":
                assert row.status.startswith("invalid:")
                assert row.e_sum is None
            else:
                assert row.status == "ok"

    def test_search_column_reports_optimum(self):
        spec = make_spec(
            n=[4],
            snr_db=[20],
            power={"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}},
            methods=["exact"],
        )
        (row,) = run_sweep(spec)
        assert row.a_s == pytest.approx(0.24)

    @pytest.mark.usefixtures("fail_at_0db")
    def test_failed_search_gives_error_rows_and_sweep_goes_on(self):
        spec = make_spec(
            n=[4],
            power={"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}},
            methods=["exact", "oma"],
        )
        rows = run_sweep(spec)
        failed = [r for r in rows if r.rho_db == 0]
        assert [r.method for r in failed] == ["exact", "oma"]
        for row in failed:
            assert row.status.startswith("error: ") and "diverged" in row.status
            assert row.a_s is None and row.e_sum is None
        assert [r.status for r in rows if r.rho_db == 10] == ["ok", "ok"]

    def test_montecarlo_rows_are_deterministic(self):
        spec = make_spec(
            n=[2], snr_db=[10], methods=["montecarlo"], sim={"samples": 20_000, "seed": 4}
        )
        assert run_sweep(spec) == run_sweep(spec)

    def test_worker_env(self, monkeypatch):
        monkeypatch.setenv("NOMAGSC_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("NOMAGSC_WORKERS", "abc")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.delenv("NOMAGSC_WORKERS")
        assert worker_count() == 1

    def test_parallel_matches_serial(self, monkeypatch):
        spec = make_spec()
        serial = run_sweep(spec)
        monkeypatch.setenv("NOMAGSC_WORKERS", "2")
        assert run_sweep(spec) == serial


class TestEmit:
    def test_csv_header_and_rows(self, tmp_path):
        spec = make_spec()
        rows = run_sweep(spec)
        path = tmp_path / "out.csv"
        emit(rows, "csv", str(path))
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert len(parsed) == len(rows) + 1
        assert float(parsed[1][0]) == rows[0].rho_db
        assert parsed[1][6] == rows[0].method

    def test_json_round_trip(self, tmp_path):
        spec = make_spec()
        rows = run_sweep(spec)
        path = tmp_path / "out.json"
        emit(rows, "json", str(path))
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        for rec, row in zip(records, rows):
            assert list(rec) == list(CSV_COLUMNS)
            assert rec["method"] == row.method
            assert math.isclose(rec["e_sum"], row.e_sum, rel_tol=1e-11)

    def test_csv_json_consistency(self, tmp_path):
        # the 12-significant-digit rounding is shared by both writers
        spec = make_spec()
        rows = run_sweep(spec)
        cpath, jpath = tmp_path / "o.csv", tmp_path / "o.json"
        emit(rows, "csv", str(cpath))
        emit(rows, "json", str(jpath))
        with open(cpath, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        records = json.loads(jpath.read_text())
        for crow, rec in zip(csv_rows, records):
            assert float(crow["e_sum"]) == rec["e_sum"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit([], "yaml", str(tmp_path / "x"))
