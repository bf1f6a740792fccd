"""Stand-in solver for adapter tests: prints canned competition output.

Usage: stub_solver.py MODE [ARGS...]; the program text arrives on stdin (or
as a trailing file path, which is ignored unless MODE needs it).
"""

import sys
import time

MODE = sys.argv[1] if len(sys.argv) > 1 else "basic"

OUTPUTS = {
    "basic": "ANSWER\na. b(1,2).\n",
    "noperiods": "% chatter\nANSWER\na b(1,2)\nSATISFIABLE\n",
    "incoherent": "INCOHERENT\n",
    "unsat": "some banner\nUNSATISFIABLE\n",
    "optimum": "ANSWER\np.\nCOST 2@1\nOPTIMUM FOUND\n",
    "twomodels": "ANSWER\na.\nANSWER\nb.\n",
    "unknown": "UNKNOWN\n",
    "garbage": "ANSWER\n((((\n",
    "empty_model": "ANSWER\n\nSATISFIABLE\n",
    "noise": "c this is chatter\nANSWER\na.\nc stats follow\nModels: 1\n",
}


def main():
    sys.stdin.read() if not sys.stdin.isatty() else None
    if MODE == "sleep":
        print("ANSWER", flush=True)
        print("a.", flush=True)
        time.sleep(20)
        return 0
    if MODE == "sleep_midanswer":
        print("ANSWER", flush=True)
        print("a.", flush=True)
        print("ANSWER", flush=True)   # killed before the model line
        time.sleep(20)
        return 0
    if MODE == "sleep_midline":
        sys.stdout.write("ANSWER\na.\nANSWER\nb(1,2) c")   # killed mid model line
        sys.stdout.flush()
        time.sleep(20)
        return 0
    if MODE == "sleep_silent":
        time.sleep(20)   # killed before it prints anything
        return 0
    if MODE == "fail":
        print("boom", file=sys.stderr)
        return 3
    sys.stdout.write(OUTPUTS[MODE])
    return 0


if __name__ == "__main__":
    sys.exit(main())
