"""The benchmark's workloads, and the checks that their outputs are correct.

A workload is a fixed sequence of ``beliefpomdp`` CLI commands.  After a
command runs, ``extract`` reduces its artifacts to a summary of three
kinds of fields, and ``check`` compares that summary with the reference
stored in ``reference.json``:

- ``exact``: exit code, iteration counts, report ``holds`` flags and
  other values that must not move;
- ``close``: deterministic values that may move in the last digits when
  summation order changes; they must agree within ``VALUE_TOL``;
- ``mc``: Monte Carlo means with their standard errors; they must agree
  within ``MC_Z`` combined standard errors, so any seed can be checked
  against a reference made with another.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("solve-grid", "monte-carlo", "certify")

#: relative agreement required of deterministic values (10x the solve tolerance)
VALUE_TOL = 1e-8
#: combined standard errors allowed between two Monte Carlo means
MC_Z = 5.0
#: probe beliefs are the grid points whose coordinates are multiples of 1/PROBE_STEPS
PROBE_STEPS = 10
#: report verdicts that depend on the sampled pairs, written as null in the
#: reference and not compared.  On the seed code, midpoint concavity of the
#: quickest_detection_x3 grid-200 value function fails for 20 of seeds 0-59
#: (over 200k pairs the worst violation is 500 times the tolerance), so no
#: single verdict is right for every seed.
SEED_DEPENDENT = {"verify-qd_x3": ("verify_concavity",)}


@dataclass(frozen=True)
class Command:
    name: str  # artifact subdirectory and reference key
    kind: str  # selects the extractor
    args: tuple  # CLI arguments without --out


def fixture(root: Path, name: str) -> str:
    return str(root / "src" / "beliefpomdp" / "fixtures" / f"{name}.json")


def model_names(workload: str) -> list:
    """Fixture models a workload reads; set-up loads each of them once."""
    return sorted(
        {
            Path(a).stem
            for c in commands(Path("."), workload, 0)
            for a in c.args
            if a.endswith(".json")
        }
    )


def commands(root: Path, workload: str, seed: int) -> list:
    fx = lambda name: fixture(root, name)  # noqa: E731
    s = str(seed)
    if workload == "solve-grid":
        return [
            Command(
                "solve",
                "solve",
                ("solve", "--model", fx("quickest_detection_x3"), "--grid", "600", "--tol", "1e-9"),
            )
        ]
    if workload == "monte-carlo":
        return [
            Command(
                "compare",
                "compare",
                ("compare", "--model", fx("filter_vs_predictor"), "--paths", "8192",
                 "--seed", s, "--workers", "1"),
            ),
            Command(
                "qd-simulate",
                "qd-simulate",
                ("qd-simulate", "--model", fx("quickest_detection_x2"), "--paths", "100000",
                 "--seed", str(seed + 7), "--workers", "1"),
            ),
        ]
    if workload == "certify":
        verify = [
            ("qd_x3", "quickest_detection_x3", "200", "concavity,stopping-convex,tp2"),
            ("linear_x3", "linear_x3", "100", "homogeneity,mlr-monotone,fosd-cost"),
            ("ultrametric_x3", "ultrametric_chain_x3", "150", "myopic-bound,concavity,ultrametric"),
            ("non_tp2", "non_tp2_observation", "200", "mlr-monotone,tp2"),
            ("increasing_cost", "increasing_cost", "200", "fosd-cost,mlr-monotone"),
        ]
        return [
            Command(
                f"verify-{label}",
                "verify",
                ("verify", "--model", fx(model), "--grid", grid, "--predicates", preds, "--seed", s),
            )
            for label, model, grid, preds in verify
        ] + [
            Command(
                "conjecture-probe",
                "conjecture-probe",
                ("conjecture-probe", "--num-models", "100", "--grid", "200", "--seed", s),
            ),
            Command(
                "ultrametric-root",
                "ultrametric-root",
                ("ultrametric-root", "--model", fx("ultrametric_chain_x3"), "--root-degree", "4"),
            ),
            Command("blackwell", "blackwell", ("blackwell", "--model", fx("filter_vs_predictor"))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _read(out: Path, name: str):
    return json.loads((out / name).read_text())


def extract(kind: str, out: Path, exit_code) -> dict:
    """Summary of one command's artifacts, split into exact, close and mc fields."""
    exact = {"exit": exit_code}
    close = {}
    mc = {}
    if kind == "solve":
        summary = _read(out, "solve_summary.json")
        exact.update(
            iterations=summary["iterations"],
            converged=summary["converged"],
            grid_points=summary["grid_points"],
        )
        table = np.loadtxt(out / "value_policy.csv", delimiter=",", skiprows=1, ndmin=2)
        x = table.shape[1] - 2
        scaled = table[:, :x] * PROBE_STEPS
        on_probe = np.all(np.abs(scaled - np.rint(scaled)) < 1e-9, axis=1)
        for k, v in zip(np.rint(scaled[on_probe]).astype(int), table[on_probe, x]):
            close["value@" + ",".join(map(str, k))] = float(v)
    elif kind == "verify":
        for path in sorted(out.glob("verify_*.json")):
            exact[path.stem] = [r["holds"] for r in json.loads(path.read_text())]
    elif kind == "compare":
        summary = _read(out, "compare_summary.json")
        exact.update(a_not_worse=summary["a_not_worse"], num_beliefs=summary["num_beliefs"])
        for row in summary["rows"]:
            at = "@" + ",".join(f"{p:g}" for p in row["initial_belief"])
            exact["horizon" + at] = row["horizon"]
            exact["paths" + at] = row["num_paths"]
            mc["mean_a" + at] = [row["mean_a"], row["se_a"]]
            mc["mean_b" + at] = [row["mean_b"], row["se_b"]]
    elif kind == "qd-simulate":
        summary = _read(out, "qd_simulate.json")
        exact.update(
            threshold=summary["threshold"],
            iterations=summary["solver"]["iterations"],
            paths=summary["num_paths"],
        )
        close["value_at_start"] = summary["value_at_start"]
        mc["ks_cost"] = [summary["ks_cost"], summary["ci_halfwidth"] / 1.96]
    elif kind == "conjecture-probe":
        exact["counterexample_found"] = _read(out, "conjecture_probe.json")["counterexample_found"]
    elif kind == "ultrametric-root":
        summary = _read(out, "ultrametric_root.json")
        exact.update(ultrametric=summary["ultrametric"]["holds"], chain_holds=summary["chain_holds"])
    elif kind == "blackwell":
        exact["dominates"] = _read(out, "blackwell.json")["dominates"]
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return {"exact": exact, "close": close, "mc": mc}


def check(got: dict, ref: dict) -> list:
    """Every disagreement between a summary and its reference, as text."""
    problems = []
    for field in ("exact", "close", "mc"):
        if set(got[field]) != set(ref[field]):
            problems.append(f"{field} fields differ: {sorted(set(got[field]) ^ set(ref[field]))}")
    for key, want in ref["exact"].items():
        if want is not None and key in got["exact"] and got["exact"][key] != want:
            problems.append(f"{key} = {got['exact'][key]!r}, reference {want!r}")
    for key, want in ref["close"].items():
        value = got["close"].get(key)
        if value is not None and abs(value - want) > VALUE_TOL * max(1.0, abs(want)):
            problems.append(f"{key} = {value!r}, reference {want!r} (tolerance {VALUE_TOL:g} relative)")
    for key, (want, want_se) in ref["mc"].items():
        if key not in got["mc"]:
            continue
        value, se = got["mc"][key]
        if abs(value - want) > MC_Z * math.hypot(se, want_se):
            problems.append(
                f"{key} = {value!r} +- {se!r}, reference {want!r} +- {want_se!r} "
                f"(more than {MC_Z:g} combined standard errors apart)"
            )
    return problems


def digest(out: Path) -> str:
    """Hash of every artifact in a command's directory except manifest.json."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
