"""Shared test configuration.

Hypothesis runs derandomized (fixed seed, no deadline) so the suite is
reproducible in CI.  Acceptance tests report one PASS/FAIL line per
criterion through the `criterion` fixture; the lines are replayed in the
terminal summary so they are visible even when capture is on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion():
    """Record a one-line verdict for an acceptance criterion.

    Returns the boolean unchanged so tests can `assert check(...)`.
    """

    def check(number: int, ok: bool, detail: str) -> bool:
        verdict = "PASS" if ok else "FAIL"
        line = f"CRITERION {number:2d}: {verdict}  {detail}"
        _CRITERION_LINES.append((number, line))
        return ok

    return check


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cosine_sizes(monkeypatch):
    """The argument size of every np.cos call while the test runs, in call
    order: a bound on them shows that a route works in blocks."""
    sizes = []
    cos = np.cos

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", spy)
    return sizes
