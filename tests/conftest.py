"""Shared fixtures and the acceptance summary hook.

Tests marked @pytest.mark.acceptance(n, "label") feed a per-criterion
table printed at the end of the run, one pass/fail line each, so the
acceptance status is readable without grepping the full log.
"""

import tracemalloc

import numpy as np
import pytest

_ACCEPTANCE = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None:
        return
    num, label = mark.args
    if rep.when == "call" or (rep.when == "setup" and rep.outcome != "passed"):
        _ACCEPTANCE.setdefault(num, (label, []))[1].append(rep.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, outcomes = _ACCEPTANCE[num]
        if "failed" in outcomes:
            word = "FAIL"
        elif "skipped" in outcomes:
            word = "SKIP"
        else:
            word = "PASS"
        terminalreporter.write_line(f"criterion {num:2d} [{word}] {label}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def traced_peak():
    """peak(fn) -> (fn(), the most memory tracemalloc traced while fn ran, in bytes)."""

    def peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak
