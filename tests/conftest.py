"""Prints one summary line per acceptance criterion after the run, and
fails any test module import, fixture set-up, test body or teardown that
runs past a wall-clock limit."""

import signal
from contextlib import contextmanager

import pytest

# The slowest test takes a few seconds; a test past this limit is stuck (a
# simplex that cycles, say), and failing it lets the rest of the run go on.
TEST_WALL_LIMIT_S = 120

_acceptance_results = {}


class WallLimitExceeded(BaseException):
    """Raised in a test body at the wall limit. Not an Exception, so that
    hypothesis does not catch it and replay the stuck example to shrink it."""


def _over_the_limit(signum, frame):
    raise WallLimitExceeded(f"test ran past {TEST_WALL_LIMIT_S} s")


@contextmanager
def _wall_limit():
    """Raises WallLimitExceeded in the block once it has run
    TEST_WALL_LIMIT_S seconds."""
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on Windows
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_the_limit)
    signal.setitimer(signal.ITIMER_REAL, TEST_WALL_LIMIT_S)
    try:
        yield
    except WallLimitExceeded as exc:
        # The interrupted frame may have no line number, and pytest cannot
        # render such a traceback: report the limit without it.
        raise WallLimitExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    # A module is imported, and its class attributes computed, when it is
    # collected.
    if not isinstance(collector, pytest.Module):
        return (yield)
    with _wall_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _wall_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _wall_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _wall_limit():
        return (yield)


@pytest.hookimpl
def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.when == "call":
        _acceptance_results[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_results[name] = report.outcome


@pytest.hookimpl
def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name]
        label = "PASS" if outcome == "passed" else "FAIL"
        markup = {"green": True} if outcome == "passed" else {"red": True}
        tr.write_line(f"{label}  {name}", **markup)
