import numpy as np
import pytest

from nomagsc import capacity, numerics
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


@pytest.fixture
def quadratures(monkeypatch):
    """The integrand of every ``numerics.integrate_semi_infinite`` call the
    test makes, in call order."""
    calls = []
    integrate = numerics.integrate_semi_infinite

    def counting(f):
        calls.append(f)
        return integrate(f)

    monkeypatch.setattr(numerics, "integrate_semi_infinite", counting)
    return calls


@pytest.fixture
def stream_fills(monkeypatch):
    """((seed, batch), count) of every standard-exponential fill the test
    makes from a Monte Carlo batch stream, in call order."""
    fills = []
    generator = np.random.Generator

    class Counting:
        def __init__(self, bit_generator):
            self.key = tuple(int(k) for k in bit_generator.state["state"]["key"])
            self.rng = generator(bit_generator)

        def standard_exponential(self, count):
            fills.append((self.key, count))
            return self.rng.standard_exponential(count)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return fills
