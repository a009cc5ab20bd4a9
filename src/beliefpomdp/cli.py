"""Batch command line front end.

Every command runs inside one lifecycle, ``with Run(out) as run:``.  It
runs one computation and writes its artifacts plus a manifest into the
output directory.  Exit codes:

- 0 on success;
- 1 on an input error: a model file that does not load, a count option
  (``--grid``, ``--paths``, ``--num-models``, ``--root-degree``) below 1,
  checked before anything is loaded or solved, ``ultrametric-root``
  with ``--root-degree`` 1 (a chain of one power checks nothing), or any
  other ``BeliefPomdpError``.  The message goes to stderr as ``error: ...``;
- 2 when a verifier found a violation or a solve failed to converge.
  Every command that solves (``solve``, ``solve-relaxed``, ``verify``,
  ``evaluate``, ``compare``, ``qd-threshold``, ``qd-simulate`` and
  ``conjecture-probe``) applies the convergence rule, and its artifacts
  are still written.  ``qd-threshold`` and ``qd-simulate`` also exit 2,
  writing ``{"error": ...}`` as their artifact, when the solved policy
  has no single threshold.

Each of these writes ``manifest.json``.  Click's own usage errors (a
missing option, a ``--model`` that does not exist, a ``--tol`` that is
not finite) exit 2 before any manifest exists.

All numbers in artifacts are formatted to 12 significant digits, and a
fixed seed makes reruns byte-identical regardless of worker or CPU count
(the manifest is the one exception: it records wall time and the sweep
threads).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import BeliefPomdpError, PreconditionFailed, StructureViolation
from .grid import build_grid
from .model import load_model, validate_model
from .quickest import check_detection_model, initial_belief, ks_cost_estimate, qd_threshold
from .simulate import (
    child_seed,
    compare_policies,
    evaluate_policy,
    initial_belief_set,
    myopic_sensor_policy,
)
from .solver import solve_discounted, solve_relaxed, solve_stopping, sweep_threads
from . import structure

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2

#: click parameters that count something: below 1 a run is empty or vacuous
COUNT_OPTIONS = ("resolution", "paths", "num_models", "root_degree")


#: rows that ``write_csv`` formats and writes at a time
CSV_BLOCK = 1 << 12


def fmt(x) -> str:
    return f"{float(x):.12g}"


def json_ready(obj):
    """Round floats to 12 significant digits, unwrap numpy containers and
    turn a dataclass into ``{field name: json_ready(value)}``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    return obj


def write_json(path: Path, payload) -> None:
    """Write ``json_ready(payload)``; a NaN or infinite number raises
    ValueError, since JSON has no such numbers."""
    text = json.dumps(json_ready(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def write_csv(path: Path, header, columns) -> None:
    """Write a table given column by column.

    ``columns`` holds one cell sequence per header name, all of one
    length (the row count); a shorter or longer column raises
    ``ValueError`` before the file is opened.  A column holds strings,
    written as they are, or numbers, written through ``fmt``.  Lines end
    in a newline, the last one included.  The file is written CSV_BLOCK
    rows at a time, so the text of the whole table is never held.
    """
    columns = list(columns)
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, min(lengths, default=0), CSV_BLOCK):
            cells = [col[lo : lo + CSV_BLOCK] for col in columns]
            cells = [c if isinstance(c[0], str) else map(fmt, c) for c in cells]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


class Run:
    """The lifecycle of one command: ``with Run(out) as run:``.

    Entering makes the output directory and rejects a count option below
    1.  Leaving writes the manifest and exits with the run's status; a
    ``BeliefPomdpError`` raised in the block is printed as ``error: ...``
    on stderr and exits 1, and any other exception propagates.  The
    manifest records the invoking click command's name and its
    parameters under their click names, plus the problem ``sizes`` a
    command reports (empty for commands that report none).
    """

    def __init__(self, out):
        self.dir = Path(out)
        ctx = click.get_current_context()
        self.command = ctx.info_name
        self.options = dict(ctx.params)
        self.counts = [
            (p.opts[0], ctx.params[p.name]) for p in ctx.command.params if p.name in COUNT_OPTIONS
        ]
        self.started = time.monotonic()
        self.status = EXIT_OK
        self.sizes = {}

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for option, value in self.counts:
            if value < 1:
                self._end(f"{option} must be at least 1, got {value}")
        return self

    def __exit__(self, exc_type, exc, traceback):
        if exc is None or isinstance(exc, BeliefPomdpError):
            self._end(exc)

    def _end(self, error=None):
        """Write the manifest and exit; an ``error`` is printed and exits 1."""
        if error is not None:
            click.echo(f"error: {error}", err=True)
            self.status = EXIT_INPUT_ERROR
        write_json(
            self.dir / "manifest.json",
            {
                "command": self.command,
                "options": self.options,
                "version": __version__,
                "sizes": self.sizes,
                "wall_time_s": time.monotonic() - self.started,
                "exit_status": self.status,
            },
        )
        sys.exit(self.status)

    def violation(self):
        self.status = EXIT_VIOLATION

    def solve(self, model, resolution, tol, max_iters, solver=None):
        """Solve ``model`` on the grid at ``resolution`` and record the solve.

        ``solver`` defaults to ``solve_stopping`` or ``solve_discounted``
        by model kind, looked up when called.  The solve's
        ``grid_points``, ``iterations`` and ``sweep_threads`` go into the
        manifest's sizes, and a solve that did not converge exits 2.
        ``sweep_threads`` depends on the machine's CPUs, so it is recorded
        nowhere else.
        """
        grid = build_grid(model.num_states, resolution)
        if solver is None:
            solver = solve_stopping if model.is_stopping else solve_discounted
        result = solver(model, grid, tol=tol, max_iters=max_iters)
        self.sizes.update(
            grid_points=grid.num_points,
            iterations=result.log.iterations,
            sweep_threads=sweep_threads(grid.num_points),
        )
        if not result.log.converged:
            self.violation()
        return result

    def record_paths(self, paths, horizon, start_beliefs, policies, horizon_key="horizon"):
        """Record Monte Carlo sizes.

        ``path_steps`` is paths x horizon x start beliefs x policies, the
        steps budgeted; a chunk whose paths have all stopped ends early.
        """
        self.sizes.update(
            {
                "paths": paths,
                horizon_key: horizon,
                "start_beliefs": start_beliefs,
                "path_steps": paths * horizon * start_beliefs * policies,
            }
        )


def _finite(ctx, param, value):
    """Reject a NaN or infinite option value, which no artifact can hold."""
    if not math.isfinite(value):
        raise click.BadParameter(f"must be finite, got {value}")
    return value


model_option = click.option("--model", "model_path", required=True, type=click.Path(exists=True))
grid_option = click.option("--grid", "resolution", default=200, show_default=True, type=int)
tol_option = click.option("--tol", default=1e-8, show_default=True, type=float, callback=_finite)
iters_option = click.option("--max-iters", default=100_000, show_default=True, type=int)
seed_option = click.option("--seed", default=0, show_default=True, type=int)
paths_option = click.option("--paths", default=10_000, show_default=True, type=int)
workers_option = click.option("--workers", default=1, show_default=True, type=int)
out_option = click.option(
    "--out",
    envvar="BELIEFPOMDP_OUT",
    default="beliefpomdp-out",
    show_default=True,
    type=click.Path(),
)


@click.group()
def main():
    """Solve, verify, and simulate belief-space POMDP models."""


@main.command()
@model_option
@out_option
def validate(model_path, out):
    """Report every model-invariant violation in a model file."""
    with Run(out) as run:
        violations = validate_model(load_model(model_path, require_valid=False))
        write_json(
            run.dir / "validation.json",
            {"valid": not violations, "violations": violations},
        )
        if violations:
            run.violation()


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@out_option
def solve(model_path, resolution, tol, max_iters, out):
    """Run value iteration and export the value function and policy."""
    with Run(out) as run:
        model = load_model(model_path)
        _write_solution(run, model, run.solve(model, resolution, tol, max_iters))


def _write_solution(run, model, result, filename="value_policy.csv"):
    """Write the solved grid, its convergence trace and a summary.

    Every grid point is ``coords / M``, so the coordinate cells index
    the M + 1 labels ``fmt(k / M)`` (the same IEEE division that built
    ``grid.points``) instead of formatting each coordinate.
    """
    grid = result.policy.grid
    header = [f"pi{i}" for i in range(1, model.num_states + 1)] + ["value", "action"]
    values = result.value.values
    labels = [fmt(k / grid.resolution) for k in range(grid.resolution + 1)]
    coordinates = [list(map(labels.__getitem__, col.tolist())) for col in grid.coords.T]
    actions = list(map(str, result.policy.actions.tolist()))
    write_csv(run.dir / filename, header, [*coordinates, values.tolist(), actions])
    log = result.log
    sweeps = list(map(str, range(1, log.iterations + 1)))
    write_csv(run.dir / "convergence.csv", ["iteration", "change"], [sweeps, log.changes])
    threshold = None
    if model.num_states == 2 and model.is_stopping:
        try:
            threshold = qd_threshold(result.policy)
        except StructureViolation:
            pass
    write_json(
        run.dir / "solve_summary.json",
        {
            "iterations": log.iterations,
            "final_change": log.final_change,
            "converged": log.converged,
            "tol": log.tol,
            "threshold": threshold,
            "grid_points": grid.num_points,
        },
    )


@main.command("solve-relaxed")
@model_option
@grid_option
@tol_option
@iters_option
@out_option
def solve_relaxed_cmd(model_path, resolution, tol, max_iters, out):
    """Solve the orthant-relaxed recursion of a linear-cost model."""
    with Run(out) as run:
        model = load_model(model_path)
        result = run.solve(model, resolution, tol, max_iters, solver=solve_relaxed)
        _write_solution(run, model, result, filename="relaxed_values.csv")


def _tp2(model, solve, seed):
    reports = []
    for u in range(1, model.num_actions + 1):
        for kind in ("transition", "observation"):
            report = structure.is_tp2(getattr(model, kind)[u - 1])
            report.details["matrix"] = f"{kind}[{u}]"
            reports.append(report)
    return reports


def _stopping_convex(model, solve, seed):
    if not model.is_stopping:
        raise PreconditionFailed("stopping-convex needs a stopping_time model")
    return [structure.verify_stopping_set_convex(solve().policy)]


def _value_tolerance(result):
    return 1e-6 * max(1e-12, result.value.scale())


#: verify's predicates by name: each maps (model, solve, seed) to
#: its reports, where ``solve()`` returns the command's one solution
PREDICATES = {
    "tp2": _tp2,
    "fosd-cost": lambda model, solve, seed: [
        structure.fosd_decreasing_cost(model, u, seed=seed)
        for u in range(1, model.num_actions + 1)
    ],
    "concavity": lambda model, solve, seed: [
        structure.verify_concavity(solve().value, _value_tolerance(solve()), seed=seed)
    ],
    "stopping-convex": _stopping_convex,
    "mlr-monotone": lambda model, solve, seed: [
        structure.verify_mlr_monotone_value(solve().value, _value_tolerance(solve()), seed=seed)
    ],
    "homogeneity": lambda model, solve, seed: [
        structure.verify_homogeneity(model, solve().value, seed=seed)
    ],
    "myopic-bound": lambda model, solve, seed: [
        structure.verify_myopic_bound(model, solve())
    ],
    "ultrametric": lambda model, solve, seed: [
        structure.is_ultrametric(model.observation[0])
    ],
}


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@seed_option
@click.option("--predicates", required=True, help="comma-separated predicate names")
@out_option
def verify(model_path, resolution, tol, max_iters, seed, predicates, out):
    """Run structural verifier predicates and write one report each."""
    with Run(out) as run:
        names = [p.strip() for p in predicates.split(",") if p.strip()]
        if not names:
            raise PreconditionFailed("no predicates given")
        unknown = [p for p in names if p not in PREDICATES]
        if unknown:
            raise PreconditionFailed(
                f"unknown predicates {unknown}; choose from {list(PREDICATES)}"
            )
        model = load_model(model_path)
        solution = functools.cache(lambda: run.solve(model, resolution, tol, max_iters))
        for name in names:
            reports = PREDICATES[name](model, solution, seed)
            write_json(run.dir / f"verify_{name.replace('-', '_')}.json", reports)
            if any(not r.holds for r in reports):
                run.violation()


def _qd_solve(run, model_path, resolution, tol, max_iters):
    """Load and solve a detection model: the model and the
    ``qd_threshold.json`` payload, which is ``{"error": ...}``, exiting 2,
    when the solved policy has no single threshold."""
    model = load_model(model_path)
    check_detection_model(model)
    result = run.solve(model, resolution, tol, max_iters)
    try:
        threshold = qd_threshold(result.policy)
    except StructureViolation as exc:
        run.violation()
        return model, {"error": str(exc)}
    log = result.log
    return model, {
        "threshold": threshold,
        "resolution": result.policy.grid.resolution,
        "iterations": log.iterations,
        "final_change": log.final_change,
        "converged": log.converged,
        "value_at_start": result.value.at(initial_belief()),
        "stop_points": int(np.count_nonzero(result.policy.actions == 1)),
    }


@main.command("qd-threshold")
@model_option
@click.option("--grid", "resolution", default=1000, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float, callback=_finite)
@iters_option
@out_option
def qd_threshold_cmd(model_path, resolution, tol, max_iters, out):
    """Solve a quickest-detection model and extract the threshold."""
    with Run(out) as run:
        _, payload = _qd_solve(run, model_path, resolution, tol, max_iters)
        write_json(run.dir / "qd_threshold.json", payload)


@main.command("qd-simulate")
@model_option
@click.option("--grid", "resolution", default=1000, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float, callback=_finite)
@iters_option
@paths_option
@seed_option
@workers_option
@out_option
def qd_simulate(model_path, resolution, tol, max_iters, paths, seed, workers, out):
    """Monte Carlo delay/false-alarm cost of the solved threshold rule."""
    with Run(out) as run:
        model, solved = _qd_solve(run, model_path, resolution, tol, max_iters)
        payload = solved
        if "error" not in solved:
            estimate = ks_cost_estimate(
                model, solved["threshold"], num_paths=paths, seed=seed, workers=workers
            )
            run.record_paths(paths, estimate.horizon_cap, 1, policies=1, horizon_key="horizon_cap")
            payload = {
                **dataclasses.asdict(estimate),
                "value_at_start": solved["value_at_start"],
                "solver": solved,
            }
        write_json(run.dir / "qd_simulate.json", payload)


@main.command()
@model_option
@out_option
def blackwell(model_path, out):
    """Factorize sensor 1's observation matrix through sensor 2's."""
    with Run(out) as run:
        model = load_model(model_path)
        if model.num_actions != 2:
            raise PreconditionFailed("blackwell factorization needs a two-action model")
        fac = structure.blackwell_factorize(model.observation[0], model.observation[1])
        write_json(run.dir / "blackwell.json", fac)
        if not fac.dominates:
            run.violation()


@main.command("ultrametric-root")
@model_option
@click.option("--root-degree", default=2, show_default=True, type=int)
@out_option
def ultrametric_root(model_path, root_degree, out):
    """Stochastic root of sensor 1's matrix plus its dominance chain."""
    with Run(out) as run:
        if root_degree < 2:
            raise PreconditionFailed(
                f"--root-degree must be at least 2 for a dominance chain to check, "
                f"got {root_degree}"
            )
        base = load_model(model_path).observation[0]
        report = structure.is_ultrametric(base)
        payload = {"ultrametric": report, "degree": root_degree}
        holds = report.holds
        if holds:
            root = structure.matrix_root(base, root_degree)
            powers = [np.linalg.matrix_power(root, k) for k in range(1, root_degree + 1)]
            chain = [structure.blackwell_factorize(hi, lo) for lo, hi in zip(powers, powers[1:])]
            holds = all(fac.dominates for fac in chain)
            payload.update(
                root=root, chain_residuals=[fac.residual for fac in chain], chain_holds=holds
            )
        write_json(run.dir / "ultrametric_root.json", payload)
        if not holds:
            run.violation()


def _write_policy_costs(path, model, rows):
    """Write one ``pi1..piX,policy,mean,std_error,paths,horizon`` row per
    (start belief, policy label, mean, std_error, paths, horizon)."""
    header = [f"pi{i}" for i in range(1, model.num_states + 1)]
    header += ["policy", "mean", "std_error", "paths", "horizon"]
    table = [[*belief, label, mean, se, str(n), str(h)] for belief, label, mean, se, n, h in rows]
    write_csv(path, header, zip(*table))


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@paths_option
@seed_option
@workers_option
@out_option
def evaluate(model_path, resolution, tol, max_iters, paths, seed, workers, out):
    """Monte Carlo cost of the grid-optimal policy from standard start beliefs."""
    with Run(out) as run:
        model = load_model(model_path)
        policy = run.solve(model, resolution, tol, max_iters).policy
        beliefs = initial_belief_set(model.num_states)
        evals = evaluate_policy(model, policy, beliefs, paths, seed=seed, workers=workers)
        run.record_paths(paths, evals[0].horizon, len(beliefs), policies=1)
        run.sizes["cap_hits"] = sum(ev.cap_hits for ev in evals)
        rows = [
            (pi0.probs, "grid_optimal", ev.mean, ev.std_error, ev.num_paths, ev.horizon)
            for pi0, ev in zip(beliefs, evals)
        ]
        _write_policy_costs(run.dir / "evaluate.csv", model, rows)


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@paths_option
@seed_option
@workers_option
@out_option
def compare(model_path, resolution, tol, max_iters, paths, seed, workers, out):
    """Paired comparison: grid-optimal policy against the myopic sensor rule."""
    with Run(out) as run:
        model = load_model(model_path)
        rule = myopic_sensor_policy(model)
        policy = run.solve(model, resolution, tol, max_iters).policy
        beliefs = initial_belief_set(model.num_states)
        comparison = compare_policies(
            model, policy, rule, beliefs, num_paths=paths, seed=seed, workers=workers
        )
        run.record_paths(paths, comparison.rows[0]["horizon"], len(beliefs), policies=2)
        rows = [
            (row["initial_belief"], label, mean, se, row["num_paths"], row["horizon"])
            for row in comparison.rows
            for label, mean, se in (
                ("grid_optimal", row["mean_a"], row["se_a"]),
                ("myopic_bound", row["mean_b"], row["se_b"]),
            )
        ]
        _write_policy_costs(run.dir / "compare.csv", model, rows)
        write_json(run.dir / "compare_summary.json", comparison)
        if comparison.a_not_worse != comparison.num_beliefs:
            run.violation()


@main.command("conjecture-probe")
@click.option("--num-models", default=50, show_default=True, type=int)
@click.option("--grid", "resolution", default=200, show_default=True, type=int)
@seed_option
@out_option
def conjecture_probe_cmd(num_models, resolution, seed, out):
    """Random search for a monotonicity counterexample without TP2 sensors."""
    with Run(out) as run:
        def generator(index):
            rng = np.random.default_rng(child_seed(seed, index))
            return structure.random_a1a2_non_tp2_model(rng)

        summary = structure.conjecture_probe(
            generator, num_models, resolution=resolution, sizes=run.sizes
        )
        write_json(run.dir / "conjecture_probe.json", summary)
        if summary["counterexample_found"] or run.sizes["unconverged"]:
            run.violation()


if __name__ == "__main__":
    main()
