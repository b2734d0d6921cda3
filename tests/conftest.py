import numpy as np
import pytest

from frobcirc import rotation


@pytest.fixture
def dense_steps(monkeypatch):
    """A list that gets one entry per dense (FFT) step of _kernels._step."""
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
    """A list that gets (n, x) for each call of rotation.order_steps, which
    tests an order and reads the fixed point steps in one pass."""
    calls = []

    def counted(x, d, n, original=rotation.order_steps):
        calls.append((n, x))
        return original(x, d, n)

    monkeypatch.setattr(rotation, "order_steps", counted)
    return calls
