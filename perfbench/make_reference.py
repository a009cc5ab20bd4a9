"""Write ``reference.json``: each command's checked outputs at ``DEV_SEED``.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark then checks every later commit against these values.
"""

import json
import shutil

from run import DEV_SEED, HERE, OUT, call
from probe import ROOT, set_up
from workloads import SEED_DEPENDENT, WORKLOADS, commands, extract


def main():
    cli, _ = set_up(WORKLOADS[0])
    reference = {}
    for workload in WORKLOADS:
        out = OUT / "reference" / workload
        shutil.rmtree(out, ignore_errors=True)
        reference[workload] = {}
        for c in commands(ROOT, workload, DEV_SEED):
            code = call(cli, (*c.args, "--out", str(out / c.name)))
            summary = extract(c.kind, out / c.name, code)
            for key in SEED_DEPENDENT.get(c.name, ()):
                summary["exact"][key] = None
            reference[workload][c.name] = summary
            print(workload, c.name, "exit", code, flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
