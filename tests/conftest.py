import pytest

from nomagsc import capacity
from nomagsc.numerics import IntegrationError


@pytest.fixture
def fail_at_0db(monkeypatch):
    """Make the exact NOMA evaluator fail with a quadrature error at 0 dB."""
    real = capacity.evaluate_noma

    def evaluate_noma(pair, split, qos, snr, *args, **kwargs):
        if snr.rho == 1.0:
            raise IntegrationError("quadrature diverged")
        return real(pair, split, qos, snr, *args, **kwargs)

    monkeypatch.setattr(capacity, "evaluate_noma", evaluate_noma)
