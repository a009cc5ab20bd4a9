"""Batch command line front end.

Every command loads a model file, runs one computation, and writes its
artifacts plus a manifest into the output directory.  Exit codes: 0 on
success, 1 on input errors, 2 when a verifier found a violation or a
solve failed to converge (artifacts are still written).

All numbers in artifacts are formatted to 12 significant digits, and a
fixed seed makes reruns byte-identical regardless of worker count (the
manifest is the one exception: it records wall time).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import BACKEND, __version__
from .errors import (
    BeliefPomdpError,
    ModelFormatError,
    PreconditionFailed,
    StructureViolation,
)
from .grid import build_grid
from .model import Belief, load_model, uniform_belief, unit_belief, validate_model
from .quickest import ks_cost_estimate, qd_threshold, spec_from_model
from .simulate import compare_policies, evaluate_policy, myopic_sensor_policy
from .solver import (
    NotThreshold,
    extract_threshold,
    solve_discounted,
    solve_relaxed,
    solve_stopping,
)
from . import structure

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VIOLATION = 2

PREDICATES = (
    "tp2",
    "fosd-cost",
    "concavity",
    "stopping-convex",
    "mlr-monotone",
    "homogeneity",
    "myopic-bound",
    "ultrametric",
)


def fmt(x) -> str:
    return f"{float(x):.12g}"


def json_ready(obj):
    """Round floats to 12 significant digits and unwrap numpy containers."""
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
    path.write_text(json.dumps(json_ready(payload), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


class Run:
    """Output directory, manifest bookkeeping, and exit status for a command.

    The manifest records the invoking click command's name and its
    parameters under their click names.
    """

    def __init__(self, out):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        ctx = click.get_current_context()
        self.command = ctx.info_name
        self.options = dict(ctx.params)
        self.started = time.monotonic()
        self.status = EXIT_OK

    def violation(self):
        self.status = EXIT_VIOLATION

    def finish(self):
        write_json(
            self.dir / "manifest.json",
            {
                "command": self.command,
                "options": self.options,
                "version": __version__,
                "backend": BACKEND,
                "wall_time_s": time.monotonic() - self.started,
                "exit_status": self.status,
            },
        )
        sys.exit(self.status)


def fail(run: Run, message: str):
    click.echo(f"error: {message}", err=True)
    run.status = EXIT_INPUT_ERROR
    run.finish()


model_option = click.option("--model", "model_path", required=True, type=click.Path(exists=True))
grid_option = click.option("--grid", "resolution", default=200, show_default=True, type=int)
tol_option = click.option("--tol", default=1e-8, show_default=True, type=float)
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


def _load(run, model_path, require_valid=True):
    try:
        return load_model(model_path, require_valid=require_valid)
    except ModelFormatError as exc:
        fail(run, str(exc))


def _solve_any(model, resolution, tol, max_iters):
    grid = build_grid(model.num_states, resolution)
    solver = solve_stopping if model.is_stopping else solve_discounted
    return solver(model, grid, tol=tol, max_iters=max_iters)


@main.command()
@model_option
@out_option
def validate(model_path, out):
    """Report every model-invariant violation in a model file."""
    run = Run(out)
    model = _load(run, model_path, require_valid=False)
    violations = validate_model(model)
    write_json(
        run.dir / "validation.json",
        {"valid": not violations, "violations": [v.to_dict() for v in violations]},
    )
    if violations:
        run.violation()
    run.finish()


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@out_option
def solve(model_path, resolution, tol, max_iters, out):
    """Run value iteration and export the value function and policy."""
    run = Run(out)
    model = _load(run, model_path)
    try:
        result = _solve_any(model, resolution, tol, max_iters)
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    _write_solution(run, model, result)
    if not result.log.converged:
        run.violation()
    run.finish()


def _write_solution(run, model, result, filename="value_policy.csv"):
    grid = result.policy.grid
    header = [f"pi{i}" for i in range(1, model.num_states + 1)] + ["value", "action"]
    values = result.value.values if hasattr(result.value, "values") else result.value.base.values
    rows = [
        list(grid.points[n]) + [values[n], str(int(result.policy.actions[n]))]
        for n in range(grid.num_points)
    ]
    write_csv(run.dir / filename, header, rows)
    threshold = None
    if model.num_states == 2 and model.is_stopping:
        t = extract_threshold(result.policy)
        threshold = None if isinstance(t, NotThreshold) else t
    write_json(
        run.dir / "solve_summary.json",
        {**result.log.to_dict(), "threshold": threshold, "grid_points": grid.num_points},
    )


@main.command("solve-relaxed")
@model_option
@grid_option
@tol_option
@iters_option
@out_option
def solve_relaxed_cmd(model_path, resolution, tol, max_iters, out):
    """Solve the orthant-relaxed recursion of a linear-cost model."""
    run = Run(out)
    model = _load(run, model_path)
    try:
        grid = build_grid(model.num_states, resolution)
        result = solve_relaxed(model, grid, tol=tol, max_iters=max_iters)
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    _write_solution(run, model, result, filename="relaxed_values.csv")
    if not result.log.converged:
        run.violation()
    run.finish()


@main.command()
@model_option
@grid_option
@tol_option
@iters_option
@seed_option
@click.option("--predicates", required=True, help="comma-separated predicate names")
@click.option("--kappa", default="0.001,0.5,1,2,7.3", show_default=True)
@out_option
def verify(model_path, resolution, tol, max_iters, seed, predicates, kappa, out):
    """Run structural verifier predicates and write one report each."""
    run = Run(out)
    names = [p.strip() for p in predicates.split(",") if p.strip()]
    unknown = [p for p in names if p not in PREDICATES]
    if unknown:
        fail(run, f"unknown predicates {unknown}; choose from {list(PREDICATES)}")
    model = _load(run, model_path)
    kappas = tuple(float(k) for k in kappa.split(","))

    solved = None

    def solution():
        nonlocal solved
        if solved is None:
            solved = _solve_any(model, resolution, tol, max_iters)
        return solved

    try:
        for name in names:
            reports = _run_predicate(model, name, solution, resolution, tol, max_iters, seed, kappas)
            payload = [r.to_dict() for r in reports]
            write_json(run.dir / f"verify_{name.replace('-', '_')}.json", payload)
            if any(not r.holds for r in reports):
                run.violation()
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    run.finish()


def _run_predicate(model, name, solution, resolution, tol, max_iters, seed, kappas):
    if name == "tp2":
        out = []
        for u in range(1, model.num_actions + 1):
            r = structure.is_tp2(model.transition[u - 1])
            r.details["matrix"] = f"transition[{u}]"
            out.append(r)
            r = structure.is_tp2(model.observation[u - 1])
            r.details["matrix"] = f"observation[{u}]"
            out.append(r)
        return out
    if name == "fosd-cost":
        return [
            structure.fosd_decreasing_cost(model, u, seed=seed)
            for u in range(1, model.num_actions + 1)
        ]
    if name == "concavity":
        result = solution()
        tolerance = 1e-6 * max(1e-12, result.value.scale())
        return [structure.verify_concavity(result.value, tolerance=tolerance, seed=seed)]
    if name == "stopping-convex":
        if not model.is_stopping:
            raise PreconditionFailed("stopping-convex needs a stopping_time model")
        result = solution()
        return [structure.verify_stopping_set_convex(result.policy)]
    if name == "mlr-monotone":
        result = solution()
        tolerance = 1e-6 * max(1e-12, result.value.scale())
        return [structure.verify_mlr_monotone_value(result.value, tolerance, seed=seed)]
    if name == "homogeneity":
        grid = build_grid(model.num_states, resolution)
        return [
            structure.verify_homogeneity(
                model, grid, kappas=kappas, seed=seed, tol=tol, max_iters=max_iters
            )
        ]
    if name == "myopic-bound":
        grid = build_grid(model.num_states, resolution)
        return [
            structure.verify_myopic_bound(model, grid, solver_tol=tol, max_iters=max_iters)
        ]
    if name == "ultrametric":
        return [structure.is_ultrametric(model.observation[0])]
    raise AssertionError(name)


@main.command("qd-threshold")
@model_option
@click.option("--grid", "resolution", default=1000, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float)
@iters_option
@out_option
def qd_threshold_cmd(model_path, resolution, tol, max_iters, out):
    """Solve a quickest-detection model and extract the threshold."""
    run = Run(out)
    model = _load(run, model_path)
    try:
        spec = spec_from_model(model)
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    try:
        result = qd_threshold(spec, resolution=resolution, tol=tol, max_iters=max_iters)
    except StructureViolation as exc:
        write_json(run.dir / "qd_threshold.json", {"error": str(exc)})
        run.violation()
        run.finish()
    write_json(run.dir / "qd_threshold.json", result.to_dict())
    run.finish()


@main.command("qd-simulate")
@model_option
@click.option("--grid", "resolution", default=1000, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float)
@iters_option
@paths_option
@seed_option
@workers_option
@out_option
def qd_simulate(model_path, resolution, tol, max_iters, paths, seed, workers, out):
    """Monte Carlo delay/false-alarm cost of the solved threshold rule."""
    run = Run(out)
    model = _load(run, model_path)
    try:
        spec = spec_from_model(model)
        solved = qd_threshold(spec, resolution=resolution, tol=tol, max_iters=max_iters)
        estimate = ks_cost_estimate(
            spec, solved.threshold, num_paths=paths, seed=seed, workers=workers
        )
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    payload = estimate.to_dict()
    payload["value_at_start"] = solved.value_at_start
    payload["solver"] = solved.to_dict()
    write_json(run.dir / "qd_simulate.json", payload)
    run.finish()


@main.command()
@model_option
@out_option
def blackwell(model_path, out):
    """Factorize sensor 1's observation matrix through sensor 2's."""
    run = Run(out)
    model = _load(run, model_path)
    if model.num_actions != 2:
        fail(run, "blackwell factorization needs a two-action model")
    fac = structure.blackwell_factorize(model.observation[0], model.observation[1])
    write_json(run.dir / "blackwell.json", fac.to_dict())
    if not fac.dominates:
        run.violation()
    run.finish()


@main.command("ultrametric-root")
@model_option
@click.option("--root-degree", default=2, show_default=True, type=int)
@out_option
def ultrametric_root(model_path, root_degree, out):
    """Stochastic root of sensor 1's matrix plus its dominance chain."""
    run = Run(out)
    model = _load(run, model_path)
    base = model.observation[0]
    report = structure.is_ultrametric(base)
    payload = {"ultrametric": report.to_dict(), "degree": root_degree}
    if not report.holds:
        write_json(run.dir / "ultrametric_root.json", payload)
        run.violation()
        run.finish()
    try:
        root = structure.matrix_root(base, root_degree)
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    powers = [np.linalg.matrix_power(root, k) for k in range(1, root_degree + 1)]
    residuals = []
    for k in range(len(powers) - 1):
        fac = structure.blackwell_factorize(powers[k + 1], powers[k])
        residuals.append(fac.residual)
    payload["root"] = root
    payload["chain_residuals"] = residuals
    payload["chain_holds"] = all(r <= 1e-6 for r in residuals)
    write_json(run.dir / "ultrametric_root.json", payload)
    if not payload["chain_holds"]:
        run.violation()
    run.finish()


def _initial_belief_set(num_states):
    beliefs = [unit_belief(i, num_states) for i in range(1, num_states + 1)]
    beliefs.append(uniform_belief(num_states))
    w = np.arange(1, num_states + 1, dtype=float)
    beliefs.append(Belief(w / w.sum()))
    beliefs.append(Belief(w[::-1] / w.sum()))
    return beliefs[:5] if num_states == 2 else beliefs


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
    run = Run(out)
    model = _load(run, model_path)
    try:
        result = _solve_any(model, resolution, tol, max_iters)
        rows = []
        seeds = np.random.SeedSequence(seed).spawn(len(_initial_belief_set(model.num_states)))
        for i, pi0 in enumerate(_initial_belief_set(model.num_states)):
            ev = evaluate_policy(
                model, result.policy, pi0, num_paths=paths, seed=seeds[i], workers=workers
            )
            rows.append(
                list(pi0.probs)
                + ["grid_optimal", ev.mean, ev.std_error, str(ev.num_paths), str(ev.horizon)]
            )
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    header = [f"pi{i}" for i in range(1, model.num_states + 1)] + [
        "policy",
        "mean",
        "std_error",
        "paths",
        "horizon",
    ]
    write_csv(run.dir / "evaluate.csv", header, rows)
    run.finish()


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
    run = Run(out)
    model = _load(run, model_path)
    try:
        result = _solve_any(model, resolution, tol, max_iters)
        comparison = compare_policies(
            model,
            result.policy,
            myopic_sensor_policy(model),
            _initial_belief_set(model.num_states),
            num_paths=paths,
            seed=seed,
            workers=workers,
        )
    except BeliefPomdpError as exc:
        fail(run, str(exc))
    header = [f"pi{i}" for i in range(1, model.num_states + 1)] + [
        "policy",
        "mean",
        "std_error",
        "paths",
        "horizon",
    ]
    rows = []
    for row in comparison.rows:
        for label, mean, se in (
            ("grid_optimal", row["mean_a"], row["se_a"]),
            ("myopic_bound", row["mean_b"], row["se_b"]),
        ):
            rows.append(
                row["initial_belief"]
                + [label, mean, se, str(row["num_paths"]), str(row["horizon"])]
            )
    write_csv(run.dir / "compare.csv", header, rows)
    write_json(run.dir / "compare_summary.json", comparison.to_dict())
    if comparison.a_not_worse != comparison.num_beliefs:
        run.violation()
    run.finish()


@main.command("conjecture-probe")
@click.option("--num-models", default=50, show_default=True, type=int)
@click.option("--grid", "resolution", default=200, show_default=True, type=int)
@seed_option
@out_option
def conjecture_probe_cmd(num_models, resolution, seed, out):
    """Random search for a monotonicity counterexample without TP2 sensors."""
    run = Run(out)
    streams = np.random.SeedSequence(seed).spawn(max(num_models, 1))

    def generator(index):
        return structure.random_a1a2_non_tp2_model(np.random.default_rng(streams[index]))

    summary = structure.conjecture_probe(generator, num_models, resolution=resolution)
    write_json(run.dir / "conjecture_probe.json", summary)
    if summary["counterexample_found"]:
        run.violation()
    run.finish()


if __name__ == "__main__":
    main()
