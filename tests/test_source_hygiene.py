"""Static checks on the package source: no public name that nothing else
uses, and no import that its module does not use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ampwatch"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(*nodes):
    """Every name the code reads, imports by name or reads as an attribute."""
    names = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


MODULES = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
# the benchmark's own modules; bench/seed_src is a frozen copy, not a user
BENCH = _referenced(*(_tree(path) for path in sorted((ROOT / "bench").glob("*.py"))))


def test_every_public_name_has_a_user_outside_its_definition():
    """A public function or class is read by the package (its own module
    outside the definition included; what __init__ re-exports is not a
    use) or by the benchmark: a name only tests call is dead code."""
    unused = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            users = [t for n, t in MODULES.items() if n not in (name, "__init__")]
            users += [top for top in tree.body if top is not node]
            if node.name not in _referenced(*users) | BENCH:
                unused.append(f"{name}.{node.name}")
    assert unused == []


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":  # its imports are the package's names
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []
