"""Shared test configuration.

Hypothesis runs derandomized (fixed seed, no deadline) so the suite is
reproducible in CI.  Acceptance tests report one PASS/FAIL line per
criterion through the `criterion` fixture; the lines are replayed in the
terminal summary so they are visible even when capture is on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jflow import SurfaceLattice

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


@pytest.fixture
def crowded_lattice():
    """A lattice whose curve C0 meets C3 (19) more than its own |C0^2|
    (18): no uniform margin opens the support {C3, C0} of alpha =
    (4, -2, 0, 2), while raising the coefficients along x with
    Gram x = -1 does."""
    return SurfaceLattice(
        4, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
        [{"name": "C0", "class": [1, 1, -3, 0], "self": "-18"},
         {"name": "C1", "class": [3, 2, 0, 1], "self": "3"},
         {"name": "C2", "class": [3, 3, 2, -2], "self": "-16"},
         {"name": "C3", "class": [-1, -2, 3, 3], "self": "-39"}],
        [4, -1, 0, -2], name="crowded")
