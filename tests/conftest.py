"""Points the cache directory of the whole session, this process and every
CLI process the tests start, at a temporary directory: importing the
package writes compiled code there.  Tests that set their own directory
keep doing so.  Replays the acceptance criterion lines after the run."""

import os
import shutil
import tempfile

_CACHE_DIR = tempfile.mkdtemp(prefix="qlsmodcat-tests-")
os.environ["QLSMODCAT_CACHE_DIR"] = _CACHE_DIR


def pytest_unconfigure(config):
    shutil.rmtree(_CACHE_DIR, ignore_errors=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
