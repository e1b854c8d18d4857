"""Shared test helpers and the acceptance summary printer."""

import tracemalloc

import pytest

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance():
    """Collector for one pass/fail line per acceptance criterion."""

    def record(num: int, title: str, ok: bool, detail: str = ""):
        _acceptance_lines.append((num, title, bool(ok), detail))

    return record


@pytest.fixture
def traced_peak():
    """The peak of the bytes traced while run() runs; numpy reports its
    buffers to tracemalloc."""

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance summary")
    for num, title, ok, detail in sorted(_acceptance_lines):
        status = "PASS" if ok else "FAIL"
        line = f"[{num:>2}] {status} {title}"
        if detail:
            line += f" | {detail}"
        terminalreporter.write_line(line)
