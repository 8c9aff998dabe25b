"""The public names perfbench/tracing.py wraps must exist and be called
through module globals, so that ``perfbench/run.py --trace 1`` counts them."""

import pathlib
import sys

import pytest

from nomagsc import capacity, distributions
from nomagsc.capacity import PowerSplit, QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_wrappers_install_and_restore(tracing):
    tracer = tracing.Tracer("contract")
    # raises AttributeError if a traced name is gone
    originals = [original for original, _ in tracer.wrappers()]
    evaluate_noma = capacity.evaluate_noma
    restore = tracer.install()
    try:
        assert capacity.evaluate_noma is not evaluate_noma
        for n, law in ((1, "sc"), (4, "mrc"), (2, "general")):
            pair = UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))
            before = dict(tracer.calls)
            capacity.evaluate_noma(pair, PowerSplit(0.24), QosProfile(1.0), SnrPoint(10.0))
            grew = {name for name, calls in tracer.calls.items() if calls > before[name]}
            assert f"distributions.min_pdf_{law}" in grew
            if law == "general":
                # the general law reads each receiver's gamma mixture, not
                # the GSC density and distribution functions
                before = dict(tracer.calls)
                distributions.min_pdf_general(pair, 0.3)
                grew = {name for name, calls in tracer.calls.items() if calls > before[name]}
                assert grew == {"distributions.min_pdf_general"}
            capacity.ec_low_snr(pair, PowerSplit(0.24), QosProfile(0.5), SnrPoint(0.1))
    finally:
        restore()
    assert tracer.calls["capacity.evaluate_noma"] == 3
    assert tracer.calls["capacity.ec_low_snr"] == 3
    assert tracer.calls["distributions.min_moments"] == 3
    assert tracer.calls["distributions.gsc_moments"] == 3
    assert tracer.calls["numerics.quad"] > 0
    assert capacity.evaluate_noma is evaluate_noma
    for name in tracing.DENSITY_FUNCTIONS:
        assert getattr(distributions, name) in originals


@pytest.mark.parametrize(
    "n, low_snr_quads", [(1, 2), (4, 2), (2, 2)], ids=["sc", "mrc", "general"]
)
def test_one_quadrature_span_per_expectation(tracing, n, low_snr_quads):
    # every analytic expectation reaches numerics.integrate_semi_infinite
    # through the module global, where the tracer counts it
    pair = UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))
    split, qos, snr = PowerSplit(0.24), QosProfile(1.0), SnrPoint(10.0)
    calls = (
        (lambda: capacity.evaluate_noma(pair, split, qos, snr), 2),
        (lambda: capacity.evaluate_oma(pair, qos, snr), 2),
        (lambda: capacity.ergodic_rate(pair, split, snr), 2),
        (lambda: capacity.ec_low_snr(pair, split, QosProfile(0.5), SnrPoint(0.1)), low_snr_quads),
    )
    tracer = tracing.Tracer("contract")
    restore = tracer.install()
    try:
        spans = []
        for call, _ in calls:
            before = tracer.calls["numerics.quad"]
            call()
            spans.append(tracer.calls["numerics.quad"] - before)
    finally:
        restore()
    assert spans == [quads for _, quads in calls]
