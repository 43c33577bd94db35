"""The CI exit-status gate: it passes only a command that exits with the
expected status, in time, with no traceback on stderr."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "expect_exit.py"


def gate(expected, code, *options):
    """Run ``code`` in a fresh interpreter under the gate; its exit status,
    stdout and stderr."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--code", str(expected), *options, "--",
         sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_passes_the_expected_status():
    # the command's stdout is discarded and its stderr echoed
    code, out, err = gate(
        2, "import sys; print('report'); print('error: refused', file=sys.stderr); sys.exit(2)")
    assert code == 0 and out == "exit 2, expected 2\n" and err == "error: refused\n"


def test_fails_another_status():
    code, out, _ = gate(2, "pass")
    assert code == 1 and out == "exit 0, expected 2\n"


def test_fails_a_traceback_even_with_the_expected_status():
    code, out, err = gate(1, "raise ValueError('boom')")
    assert code == 1 and out == "exit 1, expected 1, with a traceback on stderr\n"
    assert "Traceback" in err


def test_fails_a_command_past_its_timeout():
    code, out, _ = gate(0, "import time; time.sleep(30)", "--timeout", "0.5")
    assert code == 1 and out.startswith("still running after 0.5 s")
