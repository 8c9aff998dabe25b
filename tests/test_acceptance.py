"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (written past pytest's capture so the
verdicts always appear in the run log) and then asserts.  The reference
configuration throughout is N = 4 antennas per user, omega_s = 1,
omega_w = 0.1, T*B = 1.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nomagsc
from nomagsc import validate
from nomagsc.capacity import (
    PowerSplit,
    QosProfile,
    SnrPoint,
    ValidityError,
    ec_high_snr,
    ec_low_snr,
    ec_weak,
    ergodic_rate,
    evaluate_noma,
    evaluate_oma,
)
from nomagsc.distributions import (
    GscSpec,
    UserPairSpec,
    gsc_cdf,
    gsc_moments,
    gsc_pdf,
)
from nomagsc.montecarlo import SimPlan
from nomagsc.numerics import integrate_semi_infinite
from nomagsc.optimizer import SearchSpec, optimize_power

GRID_SNR_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
GRID_THETA = (0.5, 1.0)
GRID_N = (1, 2, 3, 4)
GRID_AS = (0.1, 0.24)


def pair44(n):
    return UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _capture(self, capsys):
        self._capsys = capsys

    def _verdict(self, label, passed, detail=""):
        line = f"[{'PASS' if passed else 'FAIL'}] {label}"
        if detail and not passed:
            line += f" ({detail})"
        with self._capsys.disabled():
            print(line, flush=True)
        assert passed, f"{label}: {detail}"

    def test_01_oracle_agreement(self):
        rows = validate.run_validation(SimPlan(samples=10**6, seed=0))
        bad = [r for r in rows if not r.passed]
        self._verdict(
            "criterion 1: analytic EC within 3 std errors of Monte Carlo "
            f"on the full oracle grid ({len(rows)} checks)",
            not bad,
            "; ".join(
                f"{r.quantity} rho={r.rho_db} theta={r.theta} n={r.n} "
                f"a_s={r.a_s} z={r.z:.2f}"
                for r in bad[:5]
            ),
        )

    def test_02_noma_beats_oma(self):
        # the power split is optimized over the full admissible range
        # here; with the split capped at 0.24 OMA wins below ~5 dB
        search = SearchSpec(a_min=0.01, a_max=0.49, step=0.01)
        failures = []
        for rho_db in GRID_SNR_DB:
            snr = SnrPoint.from_db(rho_db)
            for theta in GRID_THETA:
                qos = QosProfile(theta)
                for n in GRID_N:
                    pair = pair44(n)
                    noma = optimize_power(pair, qos, snr, search).report.e_sum
                    oma = evaluate_oma(pair, qos, snr).e_sum
                    if noma < oma:
                        failures.append((rho_db, theta, n, noma, oma))
        self._verdict(
            "criterion 2: optimized NOMA sum EC >= OMA sum EC at every grid point",
            not failures,
            str(failures[:3]),
        )

    def test_03_high_snr_fidelity(self):
        qos = QosProfile(0.5)
        snr = SnrPoint.from_db(40)
        errors = {}
        for n in GRID_N:
            hi = ec_high_snr(pair44(n), PowerSplit(0.24), qos, snr)
            ex = evaluate_noma(pair44(n), PowerSplit(0.24), qos, snr)
            errors[n] = abs(ex.e_sum - hi.e_sum) / ex.e_sum
        raised = False
        try:
            ec_high_snr(pair44(2), PowerSplit(0.24), QosProfile(1.0), snr)
        except ValidityError:
            raised = True
        self._verdict(
            "criterion 3: high-SNR approximation within 2% at 40 dB and "
            "rejects nu >= 1",
            max(errors.values()) <= 0.02 and raised,
            f"rel errors {errors}, validity raised={raised}",
        )

    def test_04_weak_user_saturation(self):
        split = PowerSplit(0.2)
        snr = SnrPoint.from_db(40)
        limit = math.log2(5)
        values = [
            ec_weak(
                UserPairSpec(GscSpec(4, 4, 1.0), GscSpec(4, n_w, 0.1)),
                split,
                QosProfile(theta),
                snr,
            )
            for n_w in (1, 2, 3, 4)
            for theta in (0.5, 2.0)
        ]
        within = max(abs(v - limit) / limit for v in values)
        spread = (max(values) - min(values)) / limit
        self._verdict(
            "criterion 4: weak-user EC saturates at log2(5), insensitive to "
            "N_w and theta",
            within <= 0.01 and spread < 0.01,
            f"max offset {within:.4f}, spread {spread:.4f}",
        )

    def test_05_low_snr_fidelity(self):
        qos = QosProfile(0.5)
        ok = True
        detail = []
        for n, law in [(1, "sc"), (4, "mrc")]:
            prev = None
            for db in (-10.0, -20.0, -30.0):
                snr = SnrPoint.from_db(db)
                lo = ec_low_snr(pair44(n), PowerSplit(0.24), qos, snr)
                ex = evaluate_noma(pair44(n), PowerSplit(0.24), qos, snr)
                rel = abs(lo.e_sum - ex.e_sum) / ex.e_sum
                detail.append(f"{law}@{db:g}dB={rel:.2e}")
                ok &= rel <= 0.05 and (prev is None or rel < prev)
                prev = rel
        self._verdict(
            "criterion 5: low-SNR expansion within 5% below -10 dB, "
            "improving per decade",
            ok,
            " ".join(detail),
        )

    def test_06_diminishing_returns(self):
        qos = QosProfile(1.0)
        snr = SnrPoint.from_db(20)
        sums = [
            evaluate_noma(pair44(n), PowerSplit(0.24), qos, snr).e_sum
            for n in GRID_N
        ]
        inc = [b - a for a, b in zip(sums, sums[1:])]
        ok = all(d > 0 for d in inc) and all(b < a for a, b in zip(inc, inc[1:]))
        self._verdict(
            "criterion 6: sum-EC increments over n are positive and "
            "strictly decreasing at 20 dB",
            ok,
            f"increments {inc}",
        )

    def test_07_jensen_bound_and_theta(self):
        violations = []
        for rho_db in GRID_SNR_DB:
            snr = SnrPoint.from_db(rho_db)
            for theta in GRID_THETA:
                qos = QosProfile(theta)
                for n in GRID_N:
                    for a_s in GRID_AS:
                        split = PowerSplit(a_s)
                        ec = evaluate_noma(pair44(n), split, qos, snr)
                        erg = ergodic_rate(pair44(n), split, snr)
                        if ec.e_sum > erg.e_sum + 1e-9:
                            violations.append((rho_db, theta, n, a_s))
        snr20 = SnrPoint.from_db(20)
        split = PowerSplit(0.24)
        erg20 = ergodic_rate(pair44(4), split, snr20).e_sum
        gaps = [
            erg20 - evaluate_noma(pair44(4), split, QosProfile(t), snr20).e_sum
            for t in (0.5, 1.0, 2.0, 5.0)
        ]
        increasing = all(b > a for a, b in zip(gaps, gaps[1:]))
        small_theta = evaluate_noma(pair44(4), split, QosProfile(1e-6), snr20).e_sum
        limit_ok = abs(small_theta - erg20) <= 1e-3
        self._verdict(
            "criterion 7: ergodic rate dominates EC, gap grows with theta, "
            "theta->0 recovers the bound",
            not violations and increasing and limit_ok,
            f"violations={violations[:3]} gaps={gaps} "
            f"|EC(1e-6)-erg|={abs(small_theta - erg20):.2e}",
        )

    def test_08_noma_oma_gap_behavior(self):
        split = PowerSplit(0.24)

        def gap(n, theta, rho_db):
            snr = SnrPoint.from_db(rho_db)
            qos = QosProfile(theta)
            return (
                evaluate_noma(pair44(n), split, qos, snr).e_sum
                - evaluate_oma(pair44(n), qos, snr).e_sum
            )

        ok = True
        detail = []
        for n in GRID_N:
            ramp = [gap(n, 1.0, db) for db in (0, 5, 10, 15, 20)]
            if not all(b > a for a, b in zip(ramp, ramp[1:])):
                ok = False
                detail.append(f"n={n} ramp {ramp}")
            g35, g40 = gap(n, 1.0, 35), gap(n, 1.0, 40)
            if abs(g40 - g35) / g40 >= 0.02:
                ok = False
                detail.append(f"n={n} saturation {g35:.4f}->{g40:.4f}")
            if not gap(n, 0.5, 20) > gap(n, 2.0, 20):
                ok = False
                detail.append(f"n={n} theta ordering")
        self._verdict(
            "criterion 8: NOMA-OMA gap grows to 20 dB, saturates by 40 dB, "
            "shrinks with theta",
            ok,
            "; ".join(detail),
        )

    def test_09_distribution_suite(self):
        ok = True
        detail = []
        for N in range(1, 7):
            for n in range(1, N + 1):
                spec = GscSpec(N, n, 1.0)
                mass = integrate_semi_infinite(lambda x: gsc_pdf(spec, x)).value
                if abs(mass - 1.0) > 1e-9:
                    ok = False
                    detail.append(f"norm N={N} n={n}: {mass}")
        sel = GscSpec(5, 1, 2.0)
        for x in (0.05, 0.5, 2.0, 8.0):
            ref = 5 / 2.0 * math.exp(-x / 2) * (1 - math.exp(-x / 2)) ** 4
            if abs(gsc_pdf(sel, x) - ref) > max(1e-10 * abs(ref), 1e-13):
                ok = False
                detail.append(f"selection reduction x={x}")
        full = GscSpec(4, 4, 0.5)
        for x in (0.1, 1.0, 3.0):
            ref = x**3 * math.exp(-x / 0.5) / (math.gamma(4) * 0.5**4)
            if abs(gsc_pdf(full, x) - ref) > 1e-10 * ref:
                ok = False
                detail.append(f"gamma reduction x={x}")
        for N, n, omega in [(4, 2, 1.0), (6, 3, 0.1), (5, 1, 2.0)]:
            spec = GscSpec(N, n, omega)
            m1, m2 = gsc_moments(spec)
            q1 = integrate_semi_infinite(lambda x: x * gsc_pdf(spec, x)).value
            q2 = integrate_semi_infinite(lambda x: x * x * gsc_pdf(spec, x)).value
            if abs(m1 - q1) > 1e-8 * q1 or abs(m2 - q2) > 1e-8 * q2:
                ok = False
                detail.append(f"moments N={N} n={n}")
        for N in (4, 6):
            for n in range(1, N):
                for x in (0.1, 0.5, 1.0, 3.0):
                    if gsc_cdf(GscSpec(N, n + 1, 1.0), x) > gsc_cdf(
                        GscSpec(N, n, 1.0), x
                    ) + 1e-12:
                        ok = False
                        detail.append(f"dominance N={N} n={n} x={x}")
        self._verdict(
            "criterion 9: distribution normalization, reductions, moments "
            "and dominance",
            ok,
            "; ".join(detail[:5]),
        )

    def test_10_optimizer_reproduction(self):
        result = optimize_power(
            pair44(4),
            QosProfile(1.0),
            SnrPoint.from_db(20),
            SearchSpec(a_min=0.01, a_max=0.24, step=0.01),
        )
        ok = result.a_star == pytest.approx(0.24)
        self._verdict(
            "criterion 10: power search over (0, 0.24] returns a_s* = 0.24",
            ok,
            f"a_star={result.a_star}",
        )

    def test_11_validate_determinism(self, tmp_path):
        # the subprocess imports the package from the same src directory,
        # whether or not it is installed
        src = str(Path(nomagsc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "nomagsc.cli", "validate",
                    "--samples", "20000", "--seed", "7", "--out", str(out),
                ],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stdout.decode()[-2000:]
            outputs.append(out.read_bytes())
        self._verdict(
            "criterion 11: repeated validate runs are byte-identical",
            outputs[0] == outputs[1],
        )
