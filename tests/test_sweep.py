import collections
import csv
import dataclasses
import json
import math

import pytest

from nomagsc import capacity, distributions, montecarlo, numerics, sweep
from nomagsc.capacity import PowerSplit, QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.figures import figure_spec, generate_figure
from nomagsc.montecarlo import SimPlan
from nomagsc.optimizer import SearchSpec
from nomagsc.sweep import (
    CSV_COLUMNS,
    METHODS,
    ConfigError,
    SweepSpec,
    emit,
    load_spec,
    run_sweep,
    write_table,
)

BASE_CONFIG = {
    "pair": {"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1},
    "n": [1, 2],
    "snr_db": [0, 10],
    "theta": [1.0],
    "power": {"a_s": 0.24},
    "methods": ["exact", "oma"],
}
SEARCH = {"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}}


def make_spec(**overrides) -> SweepSpec:
    return SweepSpec.from_dict({**BASE_CONFIG, **overrides})


class TestConfigParsing:
    def test_integral_floats_are_counts(self):
        spec = make_spec(
            n=[2.0], pair={**BASE_CONFIG["pair"], "N_s": 4.0}, sim={"samples": 1e4, "seed": 7.0}
        )
        assert spec.n_values == (2,) and type(spec.n_values[0]) is int
        assert spec.antennas_strong == 4 and type(spec.antennas_strong) is int
        assert spec.sim == SimPlan(samples=10_000, seed=7)
        assert type(spec.sim.samples) is int and type(spec.sim.seed) is int

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
            {"sim": {"samples": 1}},
            {"sim": [1000]},
            {"power": {"search": {"a_min": 0.05, "a_mx": 0.3}}},
            {"power": {"search": {"a_min": 0.3, "a_max": 0.05}}},
        ],
    )
    def test_bad_sim_or_search_is_config_error(self, overrides):
        with pytest.raises(ConfigError, match="sim|power.search"):
            make_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"theta": [1.0, -1.0]}, "theta"),
            ({"snr_db": [10, 4000]}, "rho"),
            ({"snr_db": [-4000]}, "rho"),
            ({"block_length": 0}, "block length"),
            ({"bandwidth": -1}, "bandwidth"),
            ({"block_length": json.loads("1e400")}, "finite"),  # JSON reads it as inf
            ({"theta": [1e308], "block_length": 1.0}, "nu"),
            ({"power": {"a_s": 0.7}}, "a_s"),
            ({"n": [2, 2]}, "'n' has duplicate"),
            ({"snr_db": [0, 10, 0.0]}, "'snr_db' has duplicate"),
            ({"theta": [1.0, 1]}, "'theta' has duplicate"),
            (
                {"methods": ["exact", "exact", "montecarlo", "montecarlo"]},
                "'methods' has duplicate",
            ),
        ],
        ids=[
            "negative-theta", "rho-overflow", "rho-underflow", "zero-block-length",
            "negative-bandwidth", "infinite-block-length", "nu-overflow", "a_s-0.7", "duplicate-n", "duplicate-snr", "duplicate-theta",
            "duplicate-methods",
        ],
    )
    def test_bad_grid_value_is_config_error(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            make_spec(**overrides)

    @pytest.mark.parametrize(
        "changes",
        [
            {"theta": (-1.0,)}, {"snr_db": (4000.0,)}, {"a_s": 0.7}, {"n_values": (2, 2)},
            {"a_s": None}, {"search": SearchSpec()},
        ],
    )
    def test_replace_checks_values(self, changes):
        with pytest.raises(ValueError):
            dataclasses.replace(make_spec(), **changes)

    def test_points_in_row_order(self):
        spec = make_spec(n=[2, 1], snr_db=[10, 0], theta=[2.0, 0.5])
        points = list(spec.points())
        keys = [(rho_db, theta, n) for rho_db, theta, n, *_ in points]
        assert keys == sorted(keys) and len(keys) == 8
        for rho_db, theta, n, pair, qos, snr in points:
            assert pair == spec.pair_for(n)
            assert qos == QosProfile(theta, spec.block_length, spec.bandwidth)
            assert snr == SnrPoint.from_db(rho_db)

    def test_load_reports_json_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "pair": }\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            load_spec(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize(
        "overrides, where, allowed",
        [
            ({"sead": 1}, "config", list(sweep._CONFIG_FIELDS)),
            ({"pair": {**BASE_CONFIG["pair"], "sead": 1}}, "pair",
             ["N_s", "N_w", "omega_s", "omega_w"]),
            ({"power": {"a_s": 0.24, "sead": 1}}, "power", ["a_s", "search"]),
            ({"power": {"search": {"a_min": 0.05, "sead": 1}}}, "power.search",
             ["a_min", "a_max", "step", "objective"]),
            ({"sim": {"samples": 1000, "sead": 1}}, "sim", ["samples", "seed"]),
        ],
        ids=["config", "pair", "power", "power.search", "sim"],
    )
    def test_unknown_key_reported_alike_at_every_level(self, overrides, where, allowed):
        with pytest.raises(ConfigError) as info:
            make_spec(**overrides)
        assert str(info.value) == f"unknown field(s) ['sead'] in {where}; expected {allowed}"

    def test_n_above_both_antenna_counts(self):
        # pair_for would clamp n = 5 to 4, repeating the rows of n = 4
        with pytest.raises(ConfigError, match="n = 5 is above both antenna counts"):
            make_spec(n=[4, 5])

    def test_n_between_antenna_counts_is_clamped(self):
        pair = {**BASE_CONFIG["pair"], "N_w": 2}
        rows = run_sweep(make_spec(pair=pair, n=[2, 3], snr_db=[10], methods=["exact"]))
        assert [(r.n_s, r.n_w) for r in rows] == [(2, 2), (3, 2)]


class TestRunSweep:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"methods": ["oma", "exact"]},
            {"methods": list(reversed(METHODS)), "sim": {"samples": 1_000}},
            {"methods": list(reversed(METHODS)), "sim": {"samples": 1_000}, "power": SEARCH},
        ],
        ids=["two", "all-reversed", "failed-search"],
    )
    def test_row_cardinality_and_order(self, overrides, request):
        if "power" in overrides:
            # the search fails at 0 dB: every method there is an error row
            request.getfixturevalue("fail_at_0db")
        spec = make_spec(**overrides)
        rows = run_sweep(spec)
        # one row per (point, method): (rho, theta, n), then METHODS order
        keys = [(r.rho_db, r.theta, r.n_s, METHODS.index(r.method)) for r in rows]
        assert keys == [
            (rho_db, theta, n, METHODS.index(m))
            for rho_db, theta, n, *_ in spec.points()
            for m in METHODS if m in spec.methods
        ]
        assert len(rows) == 2 * 2 * len(spec.methods)  # 2 snr x 1 theta x 2 n
        failed = {r.rho_db for r in rows if r.a_s is None}
        assert failed == ({0} if "power" in overrides else set())

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

    def test_high_snr_ergodic_limit_recorded_in_row(self):
        # at theta = 0 the high-SNR form would divide by nu = 0
        spec = make_spec(n=[2], snr_db=[20], theta=[0.0], methods=["high_snr"])
        (row,) = run_sweep(spec)
        assert row.status.startswith("invalid:") and row.e_sum is None

    def test_low_snr_overflow_recorded_in_row(self):
        spec = make_spec(n=[2], snr_db=[1600], theta=[0.5], methods=["low_snr"])
        (row,) = run_sweep(spec)
        assert row.status.startswith("invalid:") and row.e_sum is None

    def test_search_column_reports_optimum(self):
        spec = make_spec(
            n=[4],
            snr_db=[20],
            power={"search": {"a_min": 0.08, "a_max": 0.24, "step": 0.08}},
            methods=["exact"],
        )
        (row,) = run_sweep(spec)
        assert row.a_s == pytest.approx(0.24)

    @pytest.mark.parametrize(
        "objective, method, evaluator",
        [("sum_ec", "exact", "evaluate_noma"), ("sum_rate", "ergodic", "ergodic_rate")],
    )
    def test_search_report_is_the_objective_row(self, monkeypatch, objective, method, evaluator):
        # the search evaluated its objective at a*: that report is the row
        calls = []
        evaluate = getattr(capacity, evaluator)

        def counting(pair, split, *args):
            calls.append(split.a_s)
            return evaluate(pair, split, *args)

        monkeypatch.setattr(capacity, evaluator, counting)
        spec = make_spec(
            n=[4], snr_db=[20], power={"search": {**SEARCH["search"], "objective": objective}},
            methods=[method],
        )
        (row,) = run_sweep(spec)
        assert calls == pytest.approx([0.08, 0.16, 0.24])
        ((_, _, _, pair, qos, snr),) = spec.points()
        args = (qos, snr) if method == "exact" else (snr,)
        rep = evaluate(pair, PowerSplit(row.a_s), *args)
        assert (row.e_strong, row.e_weak, row.std_error) == (
            rep.e_strong, rep.e_weak, rep.numeric_error,
        )

    def test_no_methods_runs_no_search(self, monkeypatch):
        # optimize reads a search config and ignores its methods, so an empty
        # list is accepted; a sweep of it has no rows to search for
        calls = []
        monkeypatch.setattr(sweep, "optimize_power", lambda *args: calls.append(args))
        spec = make_spec(n=[2, 4], snr_db=[10, 20], power=SEARCH, methods=[])
        assert run_sweep(spec) == []
        assert calls == []

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

    @pytest.mark.parametrize(
        "pair, rho_db",
        [({"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1}, 3080),
         ({"N_s": 4, "N_w": 4, "omega_s": 1e300, "omega_w": 1e299}, 3000)],
        ids=["3080dB", "omega1e300"],
    )
    def test_montecarlo_overflow_is_an_error_row(self, pair, rho_db):
        # at theta = 0 the strong user's mean of log2(1 + SINR) overflows
        spec = make_spec(
            pair=pair, n=[1, 2, 4], snr_db=[rho_db], theta=[0.0], methods=["montecarlo"],
            sim={"samples": 1_000, "seed": 0},
        )
        rows = run_sweep(spec)
        assert [row.status for row in rows] == [
            "error: Monte Carlo ec_strong not finite: inf, std error nan"
        ] * 3
        assert all(row.e_sum is None and row.std_error is None for row in rows)

    def test_montecarlo_underflow_is_an_error_row(self):
        # every EC term underflows at theta = 1e4, 40 dB
        spec = make_spec(
            n=[4], snr_db=[40], theta=[1e4], methods=["montecarlo"],
            sim={"samples": 1_000, "seed": 0},
        )
        (row,) = run_sweep(spec)
        assert row.status.startswith("error: Monte Carlo EC mean out of range: 0.0")
        assert row.e_sum is None

    @pytest.mark.parametrize("power", [{"a_s": 0.24}, SEARCH], ids=["fixed", "search"])
    def test_one_sweep_equals_a_sweep_per_point(self, power):
        # a sweep shares density values across its points and methods
        spec = make_spec(
            n=[1, 2, 4], snr_db=[0, 20, 40], theta=[0.5, 1.0], power=power,
            methods=["exact", "high_snr", "low_snr", "oma", "ergodic"],
        )
        per_point = [
            row
            for rho_db, theta, n, *_ in spec.points()
            for row in run_sweep(
                dataclasses.replace(spec, n_values=(n,), snr_db=(rho_db,), theta=(theta,))
            )
        ]
        assert run_sweep(spec) == per_point

    def test_figure_computes_each_density_value_once(self, monkeypatch):
        computed = collections.Counter()
        density = distributions._density

        def counted(table, x):
            computed[table, x] += 1
            return density(table, x)

        # NOMAGSC_WORKERS is not read: every density call is in this process
        monkeypatch.setenv("NOMAGSC_WORKERS", "2")
        monkeypatch.setattr(distributions, "_density", counted)
        run_sweep(figure_spec("fig3"))
        assert computed and max(computed.values()) == 1

    def test_figure_calls_point_evaluator_once_per_point(self, monkeypatch, tmp_path):
        # run_sweep reads sweep._evaluate_point at call time, once per
        # grid point, so that a wrapper installed there sees every point
        calls = []
        evaluate_point = sweep._evaluate_point

        def counting(args):
            calls.append(args)
            return evaluate_point(args)

        monkeypatch.setattr(sweep, "_evaluate_point", counting)
        generate_figure("fig3", str(tmp_path))
        spec = figure_spec("fig3")
        assert len(calls) == 28
        assert [point for _, point in calls] == list(spec.points())


def per_point_montecarlo(spec: SweepSpec, row):
    """(e_strong, e_weak, e_sum, std_error) of a montecarlo row from one
    single-case pass at that row's point."""
    pair = UserPairSpec(
        GscSpec(spec.antennas_strong, row.n_s, spec.omega_strong),
        GscSpec(spec.antennas_weak, row.n_w, spec.omega_weak),
    )
    case = (
        PowerSplit(row.a_s),
        QosProfile(row.theta, spec.block_length, spec.bandwidth),
        SnrPoint.from_db(row.rho_db),
    )
    (est,) = montecarlo.estimate_cases(pair, [case], spec.sim, ("ec_strong", "ec_weak"))
    es, ew = est["ec_strong"], est["ec_weak"]
    std = (es.std_error**2 + ew.std_error**2) ** 0.5
    return es.value, ew.value, es.value + ew.value, std


class TestMonteCarloPass:
    """run_sweep estimates montecarlo rows in one pass per n."""

    @pytest.mark.parametrize(
        "spec, batch",
        [
            (figure_spec("fig1"), montecarlo.BATCH),
            (
                make_spec(
                    pair={"N_s": 6, "N_w": 3, "omega_s": 1.0, "omega_w": 0.1},
                    n=[1, 2, 3, 6], snr_db=[0, 20], theta=[0.5, 1.0],
                    methods=["oma", "montecarlo"], sim={"samples": 10_001, "seed": 3},
                ),
                4096,
            ),
            (
                make_spec(
                    n=[2, 4], snr_db=[10, 30], power=SEARCH,
                    methods=["exact", "montecarlo"], sim={"samples": 5_000, "seed": 1},
                ),
                montecarlo.BATCH,
            ),
        ],
        ids=["fig1", "6-3", "search"],
    )
    def test_rows_equal_per_point_passes(self, spec, batch, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH", batch)
        rows = run_sweep(spec)
        others = dataclasses.replace(spec, methods=tuple(m for m in spec.methods if m != "montecarlo"))
        assert [r for r in rows if r.method != "montecarlo"] == run_sweep(others)
        mc = [r for r in rows if r.method == "montecarlo"]
        assert len(mc) == len(spec.snr_db) * len(spec.theta) * len(spec.n_values)
        for row in mc:
            assert row.status == "ok"
            got = (row.e_strong, row.e_weak, row.e_sum, row.std_error)
            assert got == per_point_montecarlo(spec, row)

    def test_underflow_fails_only_its_point(self):
        # every EC term underflows at theta = 1e4, 40 dB, but not at theta = 1
        spec = make_spec(
            n=[4], snr_db=[40], theta=[1.0, 1e4], methods=["montecarlo"],
            sim={"samples": 2_000, "seed": 0},
        )
        ok, failed = run_sweep(spec)
        assert ok == run_sweep(dataclasses.replace(spec, theta=(1.0,)))[0]
        assert ok.status == "ok"
        assert failed.status.startswith("error: Monte Carlo EC mean out of range: 0.0")
        assert failed.e_sum is None and failed.std_error is None

    @pytest.mark.parametrize("site", ["draw", "combine", "accumulate"])
    def test_draw_error_fails_every_montecarlo_row(self, site, monkeypatch):
        # a failed draw, or a failed combine or accumulate of n = 2 alone,
        # fails the pass, so every montecarlo row of every n
        def failing_draw(plan):
            raise RuntimeError("pass failed")
            yield

        combined, accumulate = montecarlo._combined, montecarlo._PairPass.accumulate

        def failing_combine(spec, unit, size):
            if spec.combined == 2 and spec.omega == 0.1:
                raise RuntimeError("pass failed")
            return combined(spec, unit, size)

        def failing_accumulate(pass_, powers):
            if pass_.pair.strong.combined == 2:
                raise RuntimeError("pass failed")
            accumulate(pass_, powers)

        target, name, failing = {
            "draw": (montecarlo, "_batches", failing_draw),
            "combine": (montecarlo, "_combined", failing_combine),
            "accumulate": (montecarlo._PairPass, "accumulate", failing_accumulate),
        }[site]
        monkeypatch.setattr(target, name, failing)
        spec = make_spec(n=[1, 2, 4], methods=["oma", "montecarlo"], sim={"samples": 1_000})
        rows = run_sweep(spec)
        assert {r.method for r in rows} == {"oma", "montecarlo"}
        for row in rows:
            assert row.status == ("error: pass failed" if row.method == "montecarlo" else "ok")

    def test_failed_batch_leaves_no_garbage(self, monkeypatch, no_garbage):
        # the weak block of the first batch fails to combine: the pass's
        # error is kept as its rows' text, not with the frames that held
        # the batch's arrays
        combined = montecarlo._combined

        def failing_combine(spec, unit, size):
            if spec.omega == 0.1:
                raise MemoryError("cannot combine the weak block")
            return combined(spec, unit, size)

        spec = make_spec(n=[1, 2], snr_db=[10], methods=["montecarlo"], sim={"samples": 2_000})
        run_sweep(spec)
        monkeypatch.setattr(montecarlo, "_combined", failing_combine)
        rows = no_garbage(run_sweep, spec)
        assert [r.status for r in rows] == ["error: cannot combine the weak block"] * 2

    def test_failed_cases_leave_no_garbage(self, no_garbage):
        # every EC term underflows at theta = 1e4: each case's error is
        # kept without its traceback
        spec = make_spec(
            n=[1, 2], snr_db=[10, 300], theta=[1e4], methods=["montecarlo"],
            sim={"samples": 2_000, "seed": 0},
        )
        run_sweep(spec)
        rows = no_garbage(run_sweep, spec)
        assert len(rows) == 4
        for row in rows:
            assert row.status.startswith("error: Monte Carlo EC mean out of range")

    @pytest.mark.usefixtures("fail_at_0db")
    def test_failed_search_gives_montecarlo_error_row(self):
        spec = make_spec(
            n=[4], power=SEARCH, methods=["exact", "montecarlo"], sim={"samples": 1_000},
        )
        rows = run_sweep(spec)
        assert [(r.rho_db, r.method) for r in rows] == [
            (0, "exact"), (0, "montecarlo"), (10, "exact"), (10, "montecarlo"),
        ]
        assert rows[0].status == rows[1].status
        assert rows[1].status.startswith("error: ") and "diverged" in rows[1].status
        assert rows[1].a_s is None and rows[1].e_sum is None
        assert [r.status for r in rows[2:]] == ["ok", "ok"]

    def test_fig1_draws_its_batch_once_for_all_four_n(self, monkeypatch, stream_fills, tmp_path):
        specs = []
        combined = montecarlo._combined

        def counting(spec, unit, size):
            specs.append(spec)
            return combined(spec, unit, size)

        monkeypatch.setattr(montecarlo, "_combined", counting)
        generate_figure("fig1", str(tmp_path))
        # 1e5 samples are one batch: its two blocks are drawn once, and
        # each n combines them
        assert stream_fills == [((2024, 0), 4 * 100_000)] * 2
        pairs = [figure_spec("fig1").pair_for(n) for n in (1, 2, 3, 4)]
        assert specs == [p.strong for p in pairs] + [p.weak for p in pairs]

    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_ergodic_limit_rows(self, theta):
        # below the cutoff the EC is its theta -> 0 limit, the average rate
        spec = make_spec(
            n=[2], snr_db=[10], theta=[theta], methods=["exact", "montecarlo"],
            sim={"samples": 20_000, "seed": 0},
        )
        exact, mc = run_sweep(spec)
        assert exact.status == mc.status == "ok"
        assert abs(mc.e_sum - exact.e_sum) <= 3 * mc.std_error


class TestErgodicSharing:
    """The ergodic rate does not read theta: a sweep evaluates it once per
    (n, a_s, rho) and gives its report, or its error, to every theta."""

    @pytest.fixture
    def rate_calls(self, monkeypatch):
        calls = []
        rate = capacity.ergodic_rate

        def counting(pair, split, snr):
            calls.append((pair.strong.combined, split.a_s, snr.rho))
            return rate(pair, split, snr)

        monkeypatch.setattr(capacity, "ergodic_rate", counting)
        return calls

    def per_point(self, spec):
        return [
            row
            for rho_db, theta, n, *_ in spec.points()
            for row in run_sweep(
                dataclasses.replace(spec, n_values=(n,), snr_db=(rho_db,), theta=(theta,))
            )
        ]

    def test_one_rate_per_n_split_and_snr(self, rate_calls):
        spec = make_spec(n=[1, 2, 4], snr_db=[0, 20], theta=[0.5, 1.0, 2.0],
                         methods=["exact", "ergodic"])
        rows = run_sweep(spec)
        assert sorted(rate_calls) == sorted(set(rate_calls))
        assert len(rate_calls) == 3 * 2
        assert rows == self.per_point(spec)
        assert all(r.status == "ok" for r in rows)

    def test_fig5_evaluates_27_rates(self, rate_calls):
        run_sweep(figure_spec("fig5"))
        assert len(rate_calls) == 27  # 3 n x 9 rho; 81 points

    def test_failed_rate_is_the_row_of_every_theta(self, rate_calls, monkeypatch):
        rate = capacity.ergodic_rate

        def failing(pair, split, snr):
            report = rate(pair, split, snr)  # counted
            if snr.rho == 1.0:
                raise numerics.IntegrationError("quadrature diverged")
            return report

        monkeypatch.setattr(capacity, "ergodic_rate", failing)
        spec = make_spec(n=[2], snr_db=[0, 10], theta=[0.5, 1.0, 2.0],
                         methods=["ergodic", "montecarlo"], sim={"samples": 1_000})
        rows = run_sweep(spec)
        assert len(rate_calls) == 2
        failed = [r for r in rows if r.method == "ergodic" and r.rho_db == 0]
        assert [r.status for r in failed] == ["error: quadrature diverged"] * 3
        assert all(r.status == "ok" for r in rows if r not in failed)
        assert rows == self.per_point(spec)

    def test_failed_rate_leaves_no_garbage(self, monkeypatch, no_garbage):
        # a shared error is kept as its row text: an exception kept with its
        # traceback would hold the failed call's frames in a reference
        # cycle until the collector ran
        def failing(pair, split, snr):
            raise numerics.IntegrationError("quadrature diverged")

        monkeypatch.setattr(capacity, "ergodic_rate", failing)
        spec = make_spec(theta=[0.5, 1.0], methods=["oma", "ergodic"])
        run_sweep(spec)
        rows = no_garbage(run_sweep, spec)
        assert {r.status for r in rows if r.method == "ergodic"} == {"error: quadrature diverged"}

    def test_search_shares_only_equal_splits(self, rate_calls, monkeypatch):
        # a split that depends on theta: 0.08 at theta = 0.5 and 2, 0.16 at 1
        optimize = sweep.optimize_power

        def theta_split(pair, qos, snr, search):
            a_s = 0.16 if qos.theta == 1.0 else 0.08
            return optimize(pair, qos, snr, dataclasses.replace(search, a_min=a_s, a_max=a_s + 0.01))

        monkeypatch.setattr(sweep, "optimize_power", theta_split)
        spec = make_spec(n=[2], snr_db=[10], theta=[0.5, 1.0, 2.0], power=SEARCH,
                         methods=["ergodic"])
        rows = run_sweep(spec)
        assert [r.a_s for r in rows] == [0.08, 0.16, 0.08]
        assert sorted(rate_calls) == [(2, 0.08, 10.0), (2, 0.16, 10.0)]
        for row in rows:
            pair = spec.pair_for(2)
            rate = capacity.ergodic_rate(pair, PowerSplit(row.a_s), SnrPoint.from_db(10))
            assert (row.e_strong, row.e_weak) == (rate.e_strong, rate.e_weak)


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

    def test_write_table_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), ("a", "b", "c"), [(1 / 3, None, 2), (0.0, "x,y", True)])
        assert path.read_bytes() == b'a,b,c\r\n0.333333333333,,2\r\n0,"x,y",True\r\n'

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit([], "yaml", str(tmp_path / "x"))
