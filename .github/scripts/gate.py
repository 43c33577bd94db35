"""Run a command with its stdout discarded, and pass only if it exits with the
expected status, writes no Python traceback, and, when asked, finishes in time
and peaks under a resident-set ceiling.

    python .github/scripts/gate.py --code N [--max-bytes B] [--timeout S] -- argv...

Echoes the command's stderr and prints one status line: the exit status and,
with --max-bytes, the peak RSS (ru_maxrss of the waited-for child, in bytes).
Exits 0 if the command exited N with no "Traceback" on its stderr, within S
seconds when --timeout is given, and with a peak RSS below B when --max-bytes
is given, else 1.  A command still running after S seconds is killed.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--code", type=int, required=True, help="the expected exit status")
    parser.add_argument("--max-bytes", type=int, help="peak RSS ceiling in bytes")
    parser.add_argument("--timeout", type=float, help="seconds the command may run")
    parser.add_argument("command", nargs="+", help="the command to run, after --")
    args = parser.parse_args(argv)
    try:
        proc = subprocess.run(args.command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=args.timeout)
    except subprocess.TimeoutExpired:
        print(f"still running after {args.timeout} s, killed (expected exit {args.code})")
        return 1
    sys.stderr.write(proc.stderr)
    ok = proc.returncode == args.code
    line = f"exit {proc.returncode}, expected {args.code}"
    if args.max_bytes is not None:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        ok = ok and peak < args.max_bytes
        line += f", peak RSS {peak} bytes ({peak / 2 ** 20:.1f} MiB, ceiling {args.max_bytes} bytes)"
    if "Traceback" in proc.stderr:
        ok = False
        line += ", with a traceback on stderr"
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
