import numpy as np
import pytest


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
