"""Acceptance criteria, each with its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import hashlib
import time

import numpy as np
from click.testing import CliRunner

from beliefpomdp import structure
from beliefpomdp.cli import main as cli_main
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.grid import build_grid
from beliefpomdp.model import Belief, fixture_path, load_model
from beliefpomdp.quickest import initial_belief, ks_cost_estimate, qd_threshold
from beliefpomdp.simulate import compare_policies, initial_belief_set, myopic_sensor_policy
from beliefpomdp.solver import solve_discounted, solve_relaxed, solve_stopping
from beliefpomdp.structure import (
    blackwell_factorize,
    conjecture_probe,
    matrix_root,
    random_a1a2_non_tp2_model,
    verify_concavity,
    verify_homogeneity,
    verify_mlr_monotone_value,
    verify_myopic_bound,
    verify_stopping_set_convex,
)
from conftest import random_model, three_state_general, two_state_general
from oracles import exact_posterior_oracle, filter_update


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s of {self.limit:.0f}s budget)")
        assert elapsed < self.limit, f"{label} exceeded its runtime budget"


def test_acceptance_01_filter_matches_path_enumeration():
    budget = Budget(10)
    master = np.random.SeedSequence(101).spawn(100)
    for k in range(100):
        rng = np.random.default_rng(master[k])
        model = random_model(
            rng, num_states=int(rng.integers(2, 5)), num_actions=int(rng.integers(1, 3))
        )
        pi = Belief(rng.dirichlet(np.ones(model.num_states)))
        length = int(rng.integers(1, 9))
        steps = []
        current = pi
        for _ in range(length):
            u = int(rng.integers(1, model.num_actions + 1))
            y = int(rng.integers(1, model.num_observations[u - 1] + 1))
            steps.append((y, u))
            current = filter_update(model, current, y, u).posterior
        oracle = exact_posterior_oracle(model, pi, steps)
        assert np.max(np.abs(current.probs - oracle.probs)) <= 1e-10
    budget.done("1 filter-vs-oracle (100 random models)")


def _concavity_fixture(family, num_states):
    spec = None
    if family != "linear":
        alpha = [0.5, 0.5]
        if family == "entropy":
            spec = NonlinearCostSpec("entropy", alpha=alpha, beta=[0.0, 0.0])
        elif family == "mean_square":
            m = np.eye(num_states) + 0.2
            spec = NonlinearCostSpec("mean_square", weight_matrix=m, alpha=alpha, beta=[0.0, 0.0])
        elif family == "piecewise_linear":
            spec = NonlinearCostSpec("piecewise_linear", epsilon=0.1234)
    if num_states == 2:
        return two_state_general(nonlinear=spec, discount=0.9)
    return three_state_general(nonlinear=spec, discount=0.5)


def test_acceptance_02_value_concavity(monkeypatch):
    budget = Budget(120)
    monkeypatch.setattr(structure, "CONCAVITY_PAIRS", 3000)
    cases = [(f, 2, 1000) for f in ("linear", "entropy", "mean_square", "piecewise_linear")]
    cases += [(f, 3, 100) for f in ("linear", "entropy", "mean_square")]
    for family, x, m in cases:
        model = _concavity_fixture(family, x)
        sol = solve_discounted(model, build_grid(x, m), tol=1e-9)
        assert sol.log.converged
        tolerance = 1e-6 * sol.value.scale()
        report = verify_concavity(sol.value, tolerance)
        assert report.holds, (family, x, report.worst_violation, tolerance)
    # negative control: convex (negated entropy) cost must be caught
    control_spec = NonlinearCostSpec(
        "entropy", alpha=[-1.0, -1.0], beta=[0.0, 0.0], validate=False
    )
    control = two_state_general(
        nonlinear=control_spec, linear=[[0.0, 0.0], [0.0, 0.0]], discount=0.0
    )
    sol = solve_discounted(control, build_grid(2, 1000), tol=1e-12)
    report = verify_concavity(sol.value, 1e-9)
    assert not report.holds and report.worst_violation > 1e-4
    budget.done("2 value concavity (7 concave fixtures + negated-entropy control)")


def test_acceptance_03_stopping_set_convexity():
    budget = Budget(60)
    qd2 = load_model(fixture_path("quickest_detection_x2.json"))
    sol2 = solve_stopping(qd2, build_grid(2, 1000), tol=1e-9)
    report2 = verify_stopping_set_convex(sol2.policy)
    assert report2.holds

    threshold = qd_threshold(sol2.policy)  # raises StructureViolation without one
    assert 0.0 < threshold < 1.0
    assert sol2.policy.actions[0] == 1  # stop at pi(2) = 0

    qd3 = load_model(fixture_path("quickest_detection_x3.json"))
    sol3 = solve_stopping(qd3, build_grid(3, 60), tol=1e-9)
    report3 = verify_stopping_set_convex(sol3.policy)
    assert report3.holds
    budget.done("3 stopping-set convexity (X=2 threshold + X=3 sweep)")


def test_acceptance_04_threshold_consistency():
    budget = Budget(120)
    model = load_model(fixture_path("quickest_detection_x2.json"))
    fine = solve_stopping(model, build_grid(2, 2000), tol=1e-9)
    coarse = solve_stopping(model, build_grid(2, 1000), tol=1e-9)
    assert abs(qd_threshold(fine.policy) - qd_threshold(coarse.policy)) <= 2.0 / 1000

    estimate = ks_cost_estimate(model, qd_threshold(fine.policy), num_paths=100_000, seed=404)
    fine_start, coarse_start = (r.value.at(initial_belief()) for r in (fine, coarse))
    grid_error = abs(fine_start - coarse_start) + 1.0 / 1000
    assert abs(estimate.ks_cost - fine_start) <= estimate.ci_halfwidth + grid_error
    assert estimate.cap_hits == 0
    budget.done("4 threshold grid agreement + solver-vs-simulation cost")


def test_acceptance_05_positive_homogeneity():
    budget = Budget(60)
    for name, m in (("monotone_a123.json", 200), ("linear_x3.json", 60)):
        model = load_model(fixture_path(name))
        relaxed = solve_relaxed(model, build_grid(model.num_states, m), tol=1e-9)
        report = verify_homogeneity(model, relaxed.value)
        assert report.holds, (name, report.worst_violation)
    budget.done("5 positive homogeneity (two linear fixtures, five scales)")


def test_acceptance_06_mlr_monotone_value():
    budget = Budget(60)
    model = load_model(fixture_path("monotone_a123.json"))
    sol = solve_discounted(model, build_grid(2, 200), tol=1e-10)
    report = verify_mlr_monotone_value(sol.value, 1e-6 * sol.value.scale())
    assert report.holds

    control = load_model(fixture_path("increasing_cost.json"))
    sol_bad = solve_discounted(control, build_grid(2, 200), tol=1e-10)
    bad = verify_mlr_monotone_value(sol_bad.value, 1e-6 * sol_bad.value.scale())
    assert not bad.holds
    assert bad.witness is not None
    budget.done("6 MLR-decreasing value (A1-A3 fixture + A1-violating control)")


def test_acceptance_07_conjecture_probe():
    budget = Budget(300)
    streams = np.random.SeedSequence(707).spawn(50)

    def generator(index):
        return random_a1a2_non_tp2_model(np.random.default_rng(streams[index]))

    summary = conjecture_probe(generator, 50, resolution=200)
    assert not summary["counterexample_found"]
    budget.done("7 conjecture probe (50 non-TP2-sensor models, no counterexample)")


def test_acceptance_08_blackwell_myopic_bound():
    budget = Budget(180)
    for name in ("filter_vs_predictor.json", "ultrametric_chain.json"):
        model = load_model(fixture_path(name))
        fac = blackwell_factorize(model.observation[0], model.observation[1])
        assert fac.residual <= 1e-6, name

        sol = solve_discounted(model, build_grid(2, 200), tol=1e-10)
        report = verify_myopic_bound(model, sol)
        assert report.holds, (name, report.details)
        assert report.details["jensen_tolerance"] == 1e-8 * max(1.0, sol.value.scale())
        assert report.details["q_tolerance"] == 1e-9

        beliefs = initial_belief_set(2)
        comparison = compare_policies(
            model,
            sol.policy,
            myopic_sensor_policy(model),
            beliefs,
            num_paths=10_000,
            seed=808,
        )
        assert comparison.a_not_worse == 5, name
    budget.done("8 Blackwell dominance: factorization, Jensen, Q-form, simulation")


def test_acceptance_09_ultrametric_roots():
    budget = Budget(60)
    two = np.array([[0.6, 0.4], [0.4, 0.6]])
    three = load_model(fixture_path("ultrametric_chain_x3.json")).observation[0]
    for base in (two, three):
        for degree in (2, 3, 4):
            root = matrix_root(base, degree)
            assert np.max(np.abs(np.linalg.matrix_power(root, degree) - base)) <= 1e-8
            assert np.max(np.abs(root.sum(axis=1) - 1.0)) <= 1e-10
        quarter = matrix_root(base, 4)
        powers = [np.linalg.matrix_power(quarter, k) for k in range(1, 5)]
        for k in range(3):
            fac = blackwell_factorize(powers[k + 1], powers[k])
            assert fac.residual <= 1e-6, (base.shape, k)
    budget.done("9 ultrametric stochastic roots + dominance chain")


def _hashes(folder):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir())
        if p.name != "manifest.json"
    }


def test_acceptance_10_cli_determinism(tmp_path):
    budget = Budget(120)
    runner = CliRunner()
    qd = str(fixture_path("quickest_detection_x2.json"))
    fvp = str(fixture_path("filter_vs_predictor.json"))
    commands = {
        "solve": ["solve", "--model", qd, "--grid", "300", "--tol", "1e-9"],
        "qd-simulate": [
            "qd-simulate", "--model", qd, "--grid", "300", "--paths", "20000", "--seed", "55",
        ],
        "compare": [
            "compare", "--model", fvp, "--grid", "100", "--paths", "2000", "--seed", "55",
        ],
        "verify": [
            "verify", "--model", qd, "--predicates", "concavity,stopping-convex",
            "--grid", "200", "--tol", "1e-9", "--seed", "55",
        ],
    }
    for label, args in commands.items():
        outs = []
        for venue, workers in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / label / venue
            extra = (
                ["--workers", workers]
                if label in ("qd-simulate", "compare")
                else []
            )
            result = runner.invoke(cli_main, args + extra + ["--out", str(out)])
            assert result.exit_code == 0, (label, result.output)
            outs.append(_hashes(out))
        assert outs[0] == outs[1] == outs[2], label
        assert outs[0], label  # at least one artifact beyond the manifest
    budget.done("10 CLI determinism (same seed, workers 1 vs 8, byte-identical)")
