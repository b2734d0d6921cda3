import numpy as np
import pytest

from frobcirc import rotation


@pytest.fixture
def dense_steps(monkeypatch):
    """A list that gets one entry per dense (FFT) step of _kernels._sumset."""
    steps = []
    irfft = np.fft.irfft

    def spy(*args, **kwargs):
        steps.append(args)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    return steps


@pytest.fixture
def scan_passes(monkeypatch):
    """A list that gets the array size of every np.any call, one per element
    that oracles.semiregular_scan tests against [1, n)."""
    sizes = []
    any_ = np.any

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return any_(a, *args, **kwargs)

    monkeypatch.setattr(np, "any", spy)
    return sizes


@pytest.fixture
def report_calls(monkeypatch):
    """Two lists that get (n, x) for each call of rotation.fixed_steps (the
    steps read) and of rotation.has_order (the orders tested)."""
    steps, orders = [], []

    def counted_steps(n, x, d, primes, original=rotation.fixed_steps):
        steps.append((n, x))
        return original(n, x, d, primes)

    def counted_order(x, d, n, primes, original=rotation.has_order):
        orders.append((n, x))
        return original(x, d, n, primes)

    monkeypatch.setattr(rotation, "fixed_steps", counted_steps)
    monkeypatch.setattr(rotation, "has_order", counted_order)
    return steps, orders
