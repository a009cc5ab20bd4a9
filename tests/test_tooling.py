"""Repository guards: the library holds only code the program uses, says
each result's JSON shape once, names a cost family only in ``costs``,
turns a seed into streams by one rule, gives ``structure``, Monte Carlo
and grid no setting that the program never passes, writes every command
artifact through one of two writers, and shows in README exactly the
commands and verifier predicates it has and only constants it has."""

import ast
import importlib
from pathlib import Path

import pytest

import beliefpomdp
from beliefpomdp import cli, costs
from beliefpomdp.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beliefpomdp"
#: the trees whose code counts as using a library name
USERS = ("src", "perfbench", "tools")
#: classes whose ``to_dict`` is the model-file format, which ``load_model``
#: reads back; every other result becomes JSON through ``cli.json_ready``
MODEL_FILE_CLASSES = {"costs.NonlinearCostSpec", "model.PomdpModel"}


def _is_command(node) -> bool:
    """True for a function decorated ``@main.command(...)``: click calls it."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "command"
            and isinstance(target.value, ast.Name)
            and target.value.id == "main"
        ):
            return True
    return False


def _references(tree) -> set:
    """Names read by ``ast.Name`` or ``ast.Attribute`` in a module, less each
    module-level definition's references to its own name."""
    found = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        found |= names
    return found


def unreferenced_public_names(package: Path, users, exempt=frozenset()) -> list:
    """Module-level public functions and classes of ``package`` that no file
    under ``users`` references outside the name's own definition."""
    defined = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exempt:
                continue
            if isinstance(node, ast.FunctionDef) and _is_command(node):
                continue
            defined.append(f"{path.stem}.{node.name}")
    referenced = set()
    for root in users:
        for path in sorted(Path(root).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text()))
    return [name for name in defined if name.split(".")[1] not in referenced]


def test_every_public_library_name_is_used_by_the_program():
    users = [ROOT / d for d in USERS]
    assert unreferenced_public_names(PACKAGE, users, set(beliefpomdp.__all__)) == []


def test_guard_flags_an_unused_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import click\n\n"
        "@click.group()\n"
        "def main():\n    pass\n\n"
        "@main.command()\n"
        "def run():\n    used()\n\n"
        "def used():\n    return Kept()\n\n"
        "class Kept:\n    pass\n\n"
        "def unused(n):\n    return unused(n - 1) if n else Kept\n\n"
        "def exported():\n    pass\n"
    )
    assert unreferenced_public_names(package, [tmp_path], {"exported"}) == ["mod.unused"]


def classes_defining(package: Path, method: str) -> list:
    """``module.Class`` for every class of ``package`` that defines ``method``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == method for item in node.body
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_only_the_model_file_classes_serialize_themselves():
    hand_written = set(classes_defining(PACKAGE, "to_dict")) - MODEL_FILE_CLASSES
    assert sorted(hand_written) == []


def test_guard_flags_a_report_serializer(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "reports.py").write_text(
        "class OrderCheckReport:\n"
        "    holds = True\n\n"
        "    def to_dict(self):\n        return {'holds': self.holds}\n"
    )
    (package / "model.py").write_text(
        "class PomdpModel:\n    def to_dict(self):\n        return {}\n\n"
        "def to_dict():\n    return {}\n"
    )
    found = set(classes_defining(package, "to_dict")) - MODEL_FILE_CLASSES
    assert sorted(found) == ["reports.OrderCheckReport"]


def family_names_outside_costs(package: Path, families) -> list:
    """``module:line`` of every string constant that is one of ``families``
    in a module of ``package`` other than ``costs``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "costs":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in families:
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_costs_names_a_cost_family():
    # each family's loss, bound and checks live in costs' one table
    families = set(costs.FAMILIES) - {"none"}
    assert family_names_outside_costs(PACKAGE, families) == []


def test_guard_flags_a_family_named_outside_costs(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "costs.py").write_text(
        "FAMILIES = ('none', 'l1', 'mean_square')\n\n"
        "def loss(spec):\n    return 2.0 if spec.family == 'l1' else 0.0\n"
    )
    (package / "model.py").write_text(
        "def check(spec):\n"
        "    if spec.family == 'none':\n        return []\n"
        "    out = [f\"{spec.family} takes no 'l1'\", 'mean_square requires a matrix']\n"
        "    if spec.family in ('l1', 'linf'):\n        out.append('mean_square')\n"
        "    return out\n"
    )
    found = family_names_outside_costs(package, {"l1", "mean_square"})
    assert found == ["model:5", "model:6"]


def spawn_calls(package: Path) -> list:
    """``module:line`` of every ``.spawn(`` call in ``package``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "spawn"
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_seeds_become_streams_only_through_child_seed():
    # SeedSequence.spawn advances the seed's counter and allocates every
    # child up front; simulate.child_seed does neither
    assert spawn_calls(PACKAGE) == []


def test_guard_flags_a_spawn_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "probe.py").write_text(
        "import numpy as np\n\n"
        "def streams(seed, n):\n"
        "    return np.random.SeedSequence(seed).spawn(n)\n\n"
        "def spawn(n):\n    return [spawn] * n\n"
    )
    assert spawn_calls(package) == ["probe:4"]


def unpassed_defaults(module: Path, users) -> list:
    """``function.parameter`` for every defaulted parameter of a
    module-level function of ``module`` that no call under ``users``
    passes, by keyword or by position."""
    defaulted = {}
    for node in ast.parse(module.read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted[node.name] = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted[node.name] += [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
    unpassed = {(fn, name) for fn, params in defaulted.items() for _, name in params}
    for root in users:
        for path in sorted(Path(root).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                fn = getattr(call.func, "id", getattr(call.func, "attr", None))
                keywords = {k.arg for k in call.keywords}
                for i, name in defaulted.get(fn, []):
                    if name in keywords or (i is not None and i < len(call.args)):
                        unpassed.discard((fn, name))
    return sorted(f"{fn}.{name}" for fn, name in unpassed)


def test_every_verifier_default_is_passed_by_the_program():
    # a setting that only tests change belongs in a module constant; this
    # covers every function of structure, the verifiers' helpers too
    users = [ROOT / d for d in USERS]
    assert unpassed_defaults(PACKAGE / "structure.py", users) == []


@pytest.mark.parametrize("module", ["simulate.py", "quickest.py", "grid.py"])
def test_every_monte_carlo_and_grid_default_is_passed_by_the_program(module):
    users = [ROOT / d for d in USERS]
    assert unpassed_defaults(PACKAGE / module, users) == []


def test_guard_flags_a_verifier_knob(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "structure.py").write_text(
        "def check(value, tolerance=1e-9, seed=0, trials=10, *, cap=5) -> OrderCheckReport:\n"
        "    pass\n\n"
        "def helper(value, block=7):\n    pass\n\n"
        "def other(value, scale=1.0) -> OrderCheckReport:\n    pass\n"
    )
    (tmp_path / "cli.py").write_text(
        "import structure\n\n"
        "structure.check(v, 1e-6, seed=3)\n"
        "other(v, 2.0)\n"
    )
    found = unpassed_defaults(package / "structure.py", [tmp_path])
    assert found == ["check.cap", "check.trials", "helper.block"]


def test_guard_flags_an_unannotated_knob(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "simulate.py").write_text(
        "CAP = 10\n\n"
        "def evaluate(model, paths, seed=0, horizon_cap=CAP):\n    pass\n\n"
        "class Result:\n    def scaled(self, factor=2.0):\n        pass\n"
    )
    (tmp_path / "cli.py").write_text(
        "import simulate\n\n"
        "simulate.evaluate(m, 10, seed=3)\n"
    )
    assert unpassed_defaults(package / "simulate.py", [tmp_path]) == ["evaluate.horizon_cap"]


#: the functions through which ``cli`` writes every artifact; each unlinks
#: the old file first, so no other code may write one
ARTIFACT_WRITERS = ("write_json", "write_csv")


def _writes_a_file(call) -> bool:
    """True for ``x.write_text(...)``, ``x.write_bytes(...)`` and an
    ``open`` or ``x.open`` whose mode is not a read-only constant."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) takes the mode second, path.open(mode) first
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    modes = args[:1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes)


def file_writes_outside_the_writers(module: Path) -> list:
    """``function:line`` of every file write in ``module`` outside the
    module-level functions named in ARTIFACT_WRITERS."""
    found = []
    for top in ast.parse(module.read_text()).body:
        if isinstance(top, ast.FunctionDef) and top.name in ARTIFACT_WRITERS:
            continue
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _writes_a_file(node):
                found.append(f"{where}:{node.lineno}")
    return found


def test_cli_writes_files_only_through_the_artifact_writers():
    assert file_writes_outside_the_writers(PACKAGE / "cli.py") == []


def test_guard_flags_a_file_written_around_the_writers(tmp_path):
    module = tmp_path / "cli.py"
    module.write_text(
        "def write_json(path, payload):\n"
        "    path.unlink(missing_ok=True)\n"
        "    path.write_text(payload)\n\n"
        "def write_csv(path, rows):\n"
        "    with path.open('w') as f:\n        f.write(rows)\n\n"
        "def report(out, text, data, mode):\n"
        "    (out / 'a.txt').write_text(text)\n"
        "    (out / 'b.bin').write_bytes(data)\n"
        "    with open(out / 'c.csv', 'w') as f:\n        f.write(text)\n"
        "    with (out / 'd.csv').open(mode='a') as f:\n        f.write(text)\n"
        "    with open(out / 'e.csv', mode) as f:\n        f.write(text)\n"
        "    with open(out / 'f.csv') as f, (out / 'g.csv').open('rb') as g:\n"
        "        return f.read(), g.read()\n\n"
        "class Run:\n"
        "    def end(self):\n        open(self.path, 'x').close()\n"
    )
    assert file_writes_outside_the_writers(module) == [
        "report:10", "report:11", "report:12", "report:14", "report:16", "Run:23"
    ]


def readme_command_drift(readme: str, commands) -> tuple:
    """(commands missing from, names not commands in) the ``beliefpomdp
    <name>`` lines of ``readme``'s fenced bash examples."""
    shown = set()
    in_bash = False
    for line in readme.splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and line.startswith("beliefpomdp "):
            shown.add(line.split()[1])
    return sorted(set(commands) - shown), sorted(shown - set(commands))


def test_readme_examples_show_every_command_and_no_other():
    readme = (ROOT / "README.md").read_text()
    assert readme_command_drift(readme, main.commands) == ([], [])


def test_guard_flags_a_readme_that_drifted():
    readme = (
        "Run `beliefpomdp verify` after\n"
        "beliefpomdp verify --model m\n\n"
        "```bash\n"
        "MODEL=m.json\n"
        "beliefpomdp solve    --model $MODEL\n"
        "beliefpomdp qd-threshold --model $MODEL \\\n"
        "                     --grid 1000\n"
        "```\n\n"
        "```jsonc\n"
        "beliefpomdp compare --model m\n"
        "```\n"
    )
    drift = readme_command_drift(readme, ["solve", "verify", "compare"])
    assert drift == (["compare", "verify"], ["qd-threshold"])


#: the words that open README's sentence naming verify's predicates
PREDICATES_SENTENCE = "Verifier predicates:"


def readme_predicate_drift(readme: str, predicates) -> tuple:
    """(predicates missing from, names not predicates in) the backticked
    names of ``readme``'s sentence that opens with PREDICATES_SENTENCE."""
    start = readme.index(PREDICATES_SENTENCE)
    sentence = readme[start : readme.index(".", start)]
    shown = set(sentence.split("`")[1::2])
    return sorted(set(predicates) - shown), sorted(shown - set(predicates))


def test_readme_names_every_verify_predicate_and_no_other():
    readme = (ROOT / "README.md").read_text()
    assert readme_predicate_drift(readme, cli.PREDICATES) == ([], [])


def test_guard_flags_a_predicate_list_that_drifted():
    readme = (
        "`verify` runs predicates such as `tp2`.\n\n"
        "Verifier predicates: `tp2`, `concavity`,\n"
        "`mlr-monotone`, `bellman-residual`. Unknown names, such as `bogus`,\n"
        "are rejected.\n"
    )
    drift = readme_predicate_drift(readme, ["tp2", "concavity", "mlr-monotone", "homogeneity"])
    assert drift == (["homogeneity"], ["bellman-residual"])


#: the header row of README's table of module constants
CONSTANTS_TABLE = "| constant | value | used by |"


def readme_stale_constants(readme: str) -> list:
    """Backticked names in the first column of ``readme``'s constants table
    that are not a module constant of ``beliefpomdp``: ``module.NAME``, or
    a bare name in ``structure``."""
    stale = []
    in_table = False
    for line in readme.splitlines():
        if line.strip() == CONSTANTS_TABLE:
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and "`" in line.split("|")[1]:
            name = line.split("|")[1].strip().strip("`")
            where, _, attr = name.rpartition(".")
            module = importlib.import_module(f"beliefpomdp.{where or 'structure'}")
            found = getattr(module, attr, None)
            if found is None or callable(found):
                stale.append(name)
    return stale


def test_readme_constants_table_names_only_module_constants():
    assert readme_stale_constants((ROOT / "README.md").read_text()) == []


def test_guard_flags_a_stale_constant():
    readme = (
        "Settings are constants; `OLD_KNOB` was one.\n\n"
        "| constant | value | used by |\n"
        "| --- | --- | --- |\n"
        "| `grid.MAX_POINTS` | 2,000,000 | every command that solves |\n"
        "| `PAIR_CAP` | 1,000,000 pairs | `mlr-monotone` |\n"
        "| `simulate.PATH_CHUNK` | 8,192 paths | `evaluate` |\n"
        "| `cli.CSV_BLOCK` | 4,096 rows | `solve` |\n"
        "| `verify_concavity` | a function, not a constant | `concavity` |\n"
        "\n"
        "| `MISSING_ELSEWHERE` | not in the table | |\n"
    )
    assert readme_stale_constants(readme) == ["simulate.PATH_CHUNK", "verify_concavity"]
