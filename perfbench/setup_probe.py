"""Time one workload set-up in a fresh interpreter.

Usage: python perfbench/setup_probe.py <workload> <seed>
Prints the set-up seconds (qetsim imports, inputs and reference outputs).
"""

import sys
from pathlib import Path

import workloads


def main(name: str, seed: int) -> None:
    root = Path(__file__).resolve().parent.parent
    _, seconds = workloads.timed_setup(name, seed, root)
    print(repr(seconds))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
