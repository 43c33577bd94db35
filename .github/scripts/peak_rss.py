"""Run a command with its stdout discarded, and pass only if it exits 0 with a
peak resident set size under a ceiling.

    python .github/scripts/peak_rss.py --max-bytes N -- argv...

Prints the command's exit status and its peak RSS, then exits 0 if the command
exited 0 and its peak RSS (ru_maxrss of the waited-for child, in bytes) is
below N, else 1.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-bytes", type=int, required=True, help="peak RSS ceiling in bytes")
    parser.add_argument("command", nargs="+", help="the command to run, after --")
    args = parser.parse_args(argv)
    code = subprocess.call(args.command, stdout=subprocess.DEVNULL)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    print(f"exit {code}, peak RSS {peak} bytes ({peak / 2 ** 20:.1f} MiB, "
          f"ceiling {args.max_bytes} bytes)")
    return 0 if code == 0 and peak < args.max_bytes else 1


if __name__ == "__main__":
    sys.exit(main())
