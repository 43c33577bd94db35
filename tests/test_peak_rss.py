"""The CI peak-RSS gate: it passes only a command that exits 0 under its ceiling."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "peak_rss.py"


def gate(max_bytes, code):
    """Run ``code`` in a fresh interpreter under the gate; its exit status and stdout."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--max-bytes", str(max_bytes), "--",
         sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_passes_a_command_under_its_ceiling():
    # the command's own stdout is discarded: only the gate's status line is printed
    code, out = gate(2 ** 30, "print('command output')")
    assert code == 0 and "command output" not in out
    assert out.startswith("exit 0, peak RSS ") and out.count("\n") == 1


def test_fails_a_command_that_exits_nonzero():
    code, out = gate(2 ** 30, "raise SystemExit(3)")
    assert code == 1 and out.startswith("exit 3, ")


def test_fails_a_command_over_its_ceiling():
    # 64 MiB written, so resident, against a 32 MiB ceiling
    code, out = gate(32 * 2 ** 20, "b = b'x' * (64 * 2 ** 20)")
    assert code == 1 and out.startswith("exit 0, ")
    peak = int(out.split("peak RSS ")[1].split()[0])
    assert peak >= 64 * 2 ** 20
