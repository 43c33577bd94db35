"""The CI gate: it passes only a command that exits with the expected status,
in time, under its peak-RSS ceiling when it has one, with no traceback on
stderr."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "gate.py"


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


def test_passes_a_command_under_its_ceiling():
    # the command's own stdout is discarded: only the gate's status line is printed
    code, out, _ = gate(0, "print('command output')", "--max-bytes", str(2 ** 30))
    assert code == 0 and "command output" not in out
    assert out.startswith("exit 0, expected 0, peak RSS ") and out.count("\n") == 1


def test_fails_a_command_that_exits_nonzero():
    code, out, _ = gate(0, "raise SystemExit(3)", "--max-bytes", str(2 ** 30))
    assert code == 1 and out.startswith("exit 3, expected 0, peak RSS ")


def test_fails_a_command_over_its_ceiling():
    # 64 MiB written, so resident, against a 32 MiB ceiling
    code, out, _ = gate(0, "b = b'x' * (64 * 2 ** 20)", "--max-bytes", str(32 * 2 ** 20))
    assert code == 1 and out.startswith("exit 0, expected 0, ")
    peak = int(out.split("peak RSS ")[1].split()[0])
    assert peak >= 64 * 2 ** 20


def test_fails_a_traceback_under_a_ceiling():
    code, out, _ = gate(1, "raise ValueError('boom')", "--max-bytes", str(2 ** 30))
    assert code == 1 and out.endswith(", with a traceback on stderr\n")
