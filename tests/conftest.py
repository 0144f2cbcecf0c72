"""Tier-1 is green only with every test run and passed: a session in
which any test was skipped or xfailed exits non-zero, and the terminal
summary names those tests."""

import pytest

_NOT_RUN = []


def pytest_runtest_logreport(report):
    # an xfail (and an xpass under strict) is reported as skipped with
    # `wasxfail`; a skip can come from set-up as well as from the call
    if report.skipped or hasattr(report, "wasxfail"):
        _NOT_RUN.append(report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if _NOT_RUN:
        terminalreporter.write_sep("=", "tier-1 forbids skipped and xfailed tests", red=True)
        for nodeid in dict.fromkeys(_NOT_RUN):
            terminalreporter.write_line(nodeid)


def pytest_sessionfinish(session, exitstatus):
    if _NOT_RUN and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
