"""The wall-clock limit of ``tests/conftest.py`` covers every phase of a
test: the import of its module, its fixtures' set-up and teardown, and its
body. Each case runs a copy of the conftest, its limit cut to a fraction of
a second, in a pytest subprocess over a test that sleeps in one phase."""

import re
import signal
from pathlib import Path
from textwrap import dedent

import pytest

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).with_name("conftest.py")
LIMIT_S = 0.2
HEADER = """
    import time

    import pytest

    SLEEP_S = 30
"""

CASES = {
    "module-import": """
        time.sleep(SLEEP_S)

        def test_it():
            pass
    """,
    "fixture-setup": """
        @pytest.fixture
        def slow():
            time.sleep(SLEEP_S)

        def test_it(slow):
            pass
    """,
    "fixture-teardown": """
        @pytest.fixture
        def slow():
            yield
            time.sleep(SLEEP_S)

        def test_it(slow):
            pass
    """,
    "test-body": """
        def test_it():
            time.sleep(SLEEP_S)
    """,
}


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no alarm signal")
@pytest.mark.parametrize("phase", sorted(CASES))
def test_a_phase_past_the_limit_fails(pytester, phase):
    conftest, count = re.subn(
        r"^TEST_WALL_LIMIT_S = 120$",
        f"TEST_WALL_LIMIT_S = {LIMIT_S}",
        CONFTEST.read_text(),
        flags=re.M,
    )
    assert count == 1
    pytester.makeconftest(conftest)
    pytester.makepyfile(test_sleeper=dedent(HEADER) + dedent(CASES[phase]))
    # Without hypothesis's plugin the subprocess starts in under a second.
    result = pytester.runpytest_subprocess(
        "-p", "no:cacheprovider", "-p", "no:hypothesispytest"
    )
    result.stdout.fnmatch_lines([f"*ran past {LIMIT_S} s*"])
    assert result.ret != pytest.ExitCode.OK
    assert result.duration < 15
