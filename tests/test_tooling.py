"""Repository guards: the library holds only code the program uses, says
each result's JSON shape once, turns a seed into streams by one rule, and
gives its verifiers, Monte Carlo and grid no setting that the program
never passes."""

import ast
from pathlib import Path

import pytest

import beliefpomdp

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


def unpassed_defaults(module: Path, users, returns=None) -> list:
    """``function.parameter`` for every defaulted parameter of a
    module-level function of ``module`` that no call under ``users``
    passes, by keyword or by position.  Given ``returns``, only functions
    annotated ``-> returns`` count."""
    defaulted = {}
    for node in ast.parse(module.read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if returns is not None and getattr(node.returns, "id", None) != returns:
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
    # a setting that only tests change belongs in a module constant
    users = [ROOT / d for d in USERS]
    assert unpassed_defaults(PACKAGE / "structure.py", users, "OrderCheckReport") == []


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
    found = unpassed_defaults(package / "structure.py", [tmp_path], "OrderCheckReport")
    assert found == ["check.cap", "check.trials"]


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
