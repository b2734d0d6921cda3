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
