import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.solve, slogdet and cholesky calls in the test."""
    counts = {"solve": 0, "slogdet": 0, "cholesky": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
