"""Benchmark of the ``beliefpomdp`` pipeline through its CLI entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

One run is one fresh interpreter and one closed-loop client without
threads: the workload's commands (see ``workloads.py``) are called
in-process with ``cli.main(args, standalone_mode=False)``, one after the
other, and the whole sequence repeats until ``--seconds`` would be
exceeded.  The package is imported from this checkout's ``src/``, never
from an installed copy, so no compiled kernel is built or used.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time from
  interpreter start until ``beliefpomdp.cli`` is imported and the
  workload's models are loaded;
- ``wall_s`` and ``cpu_s``: median wall and user+system CPU time of one
  pass through the command sequence;
- ``peak_rss_mb``: the run process's ``ru_maxrss``.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py``, plus the tracing overhead.

After every pass each command's exit code and artifacts are checked
against ``reference.json``, and its artifacts, except ``manifest.json``,
must be byte-identical to those of the first pass.  A command that fails
either check counts in ``failed``; so does every command of a traced
pass whose layer counts differ from the first traced pass.  The last
line of standard output is the result as one JSON object.

Seeds: ``--seed`` goes to every command's ``--seed`` option.
``reference.json`` was made with ``DEV_SEED``; check a claimed gain again
with ``--seed`` set to ``HOLDOUT_SEED``, which no change should be tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from probe import ROOT, set_up
from tracing import REPEATING_COUNTS, Tracer, layer_metrics, summarize
from workloads import WORKLOADS, check, commands, digest, extract

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DEV_SEED = 1
HOLDOUT_SEED = 97
SETUP_SAMPLES = 7


def setup_sample(workload: str) -> float:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, repr(start)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def call(cli, args) -> int:
    """Exit code of one command, which ``Run.finish`` raises as SystemExit."""
    try:
        cli.main(list(args), standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def tail_percentile(samples):
    """(p, value) for the highest whole percentile with ten samples above it."""
    p = int(100 * (1 - 10 / len(samples)))
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100)[p - 1]


def machine_record(beliefpomdp, numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "backend": beliefpomdp.BACKEND,
        "beliefpomdp": str(Path(beliefpomdp.__file__).resolve().parent),
    }


def run_pass(cli, cmds, out: Path, tracer, label: int):
    """Run each command once: (exit codes, wall seconds per command, CPU seconds)."""
    codes, walls, cpu_total = [], [], 0.0
    for c in cmds:
        if tracer is not None:
            tracer.run = f"{label}/{c.name}"
        t, cpu = time.perf_counter(), cpu_seconds()
        try:
            codes.append(call(cli, (*c.args, "--out", str(out / c.name))))
        except Exception:  # one failing command must not stop the benchmark
            traceback.print_exc()
            codes.append(None)
        walls.append(time.perf_counter() - t)
        cpu_total += cpu_seconds() - cpu
    return codes, walls, cpu_total


def check_pass(cmds, codes, out: Path, reference: dict, first_digest: dict) -> dict:
    """Problems found in each command's outputs after one pass, by command name."""
    problems = {}
    for c, code in zip(cmds, codes):
        found = []
        if code is None:
            found.append("raised an exception")
        else:
            try:
                found += check(extract(c.kind, out / c.name, code), reference[c.name])
                d = digest(out / c.name)
            except (OSError, KeyError, ValueError) as exc:
                found.append(f"artifacts missing or malformed: {exc!r}")
            else:
                if first_digest.setdefault(c.name, d) != d:
                    found.append("artifacts differ from the first pass with the same seed")
        problems[c.name] = found
    return problems


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "beliefpomdp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no beliefpomdp package under {ROOT / 'src'}; run from a repository checkout")
    setup = [] if args.trace else [setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]

    cli, _ = set_up(args.workload)
    import beliefpomdp
    import numpy

    machine = machine_record(beliefpomdp, numpy)
    if Path(machine["beliefpomdp"]) != package.resolve():
        sys.exit(f"error: imported beliefpomdp from {machine['beliefpomdp']}, not from {package}")

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    cmds = commands(ROOT, args.workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    tracer = Tracer() if args.trace else None

    walls = {False: [], True: []}  # pass wall times, keyed by whether traced
    cpus = []
    command_walls = {c.name: [] for c in cmds}
    first_digest = {}
    layers = []
    attempted = failed = 0
    start = time.monotonic()
    laps = []
    while True:
        lap_start = time.monotonic()
        traced = tracer is not None and len(laps) % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            codes, pass_walls, pass_cpu = run_pass(cli, cmds, out, tracer if traced else None, len(laps))
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(pass_walls))
        for c, w in zip(cmds, pass_walls):
            command_walls[c.name].append(w)
        if not traced:
            cpus.append(pass_cpu)

        problems = check_pass(cmds, codes, out, reference, first_digest)
        if traced:
            layers.append(layer_metrics(tracer.spans[first_span:]))
            for n in REPEATING_COUNTS:
                if layers[-1][n] != layers[0][n]:
                    for found in problems.values():
                        found.append(f"count {n} differs from the first traced pass")
        attempted += len(cmds)
        failed += sum(bool(found) for found in problems.values())
        for name, found in problems.items():
            for p in found:
                print(f"check failed: pass {len(laps)} {name}: {p}", file=sys.stderr)

        laps.append(time.monotonic() - lap_start)
        # a traced run skips its first, cold pass when it compares traced and untraced time
        untraced = len(walls[False]) if tracer is None else min(len(walls[False]) - 1, len(walls[True]))
        if untraced >= 2 and time.monotonic() - start + statistics.median(laps) > args.seconds:
            break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "passes": len(laps),
        "wall_s_samples": walls[False],
        "wall_s_tail_percentile": tail_percentile(walls[False])
        or "none: fewer than 21 samples in one run",
        "command_median_s": {n: statistics.median(v) for n, v in command_walls.items()},
        "ops_failed_frac": failed / attempted,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail["setup_s_samples"] = setup
    else:
        metrics = summarize(layers)
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False][1:])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.spans"] = (len(tracer.spans) / len(walls[True]), "count")
        trace_file = out / "trace.json"
        trace_file.write_text(json.dumps(tracer.records()))
        detail["trace_file"] = str(trace_file)
        detail["traced_wall_s_samples"] = walls[True]
    print(json.dumps(detail, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
