"""Shared fixtures, plus a terminal summary of the acceptance criteria."""

import warnings

import pytest

# When a hypothesis test fails, hypothesis imports libcst to write the failing
# example as a patch, and libcst's use of mypy_extensions.TypedDict warns.
# The warning policy would turn that warning into an error inside hypothesis'
# report hook, which ends the whole session in an INTERNALERROR. Importing
# libcst once here, with that one warning ignored, lets the later import find
# it loaded. libcst is not a test dependency, so it may be missing.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per acceptance criterion.

    Tests call record(name, passed, detail) before asserting so the line is
    printed in the terminal summary either way.
    """

    def record(name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        _ACCEPTANCE_LINES.append(f"[acceptance] {name}: {status}{suffix}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
