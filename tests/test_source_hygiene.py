"""Static checks on the package source: no public name or method that
nothing else uses, and no import that its module does not use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ampwatch"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(nodes):
    """Every name the nodes read, import by name or read as an attribute."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _referenced(*trees):
    """``_names`` of every node of the trees."""
    return _names(node for top in trees for node in ast.walk(top))


def _walk_outside(tree, skip):
    """``ast.walk`` over ``tree`` without the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


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


def test_every_public_method_has_a_user_outside_its_definition():
    """A public method of a package class is read, as an attribute or a
    name, by the package outside its own def or by the benchmark."""
    unused = []
    for name, tree in MODULES.items():
        others = _referenced(*(t for n, t in MODULES.items() if n not in (name, "__init__")))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in others | BENCH | _names(_walk_outside(tree, node))):
                    unused.append(f"{name}.{cls.name}.{node.name}")
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
