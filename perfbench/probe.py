"""One set-up sample: import the CLI and load a workload's models, in a fresh interpreter.

Usage: python3 perfbench/probe.py <workload> <monotonic start>

Prints the seconds from the given ``time.monotonic()`` reading, taken by
the parent just before it started this interpreter, until set-up ends.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def set_up(workload: str):
    """Import ``beliefpomdp.cli`` from this checkout and load the workload's models."""
    from workloads import fixture, model_names

    sys.path.insert(0, str(ROOT / "src"))
    from beliefpomdp import cli

    models = [cli.load_model(fixture(ROOT, name)) for name in model_names(workload)]
    return cli, models


if __name__ == "__main__":
    set_up(sys.argv[1])
    print(time.monotonic() - float(sys.argv[2]))
