"""Repository guards: the library holds only code the program uses."""

import ast
from pathlib import Path

import beliefpomdp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beliefpomdp"
#: the trees whose code counts as using a library name
USERS = ("src", "perfbench", "tools")


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
