"""Run a command with its stdout discarded, and pass only if it exits with the
expected status and writes no Python traceback.

    python .github/scripts/expect_exit.py --code N [--timeout S] -- argv...

Echoes the command's stderr, prints its exit status, then exits 0 if the
command exited N, within S seconds when --timeout is given, with no
"Traceback" on its stderr, else 1.  A command still running after S seconds
is killed.
"""

import argparse
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--code", type=int, required=True, help="the expected exit status")
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
    traceback = "Traceback" in proc.stderr
    print(f"exit {proc.returncode}, expected {args.code}"
          + (", with a traceback on stderr" if traceback else ""))
    return 0 if proc.returncode == args.code and not traceback else 1


if __name__ == "__main__":
    sys.exit(main())
