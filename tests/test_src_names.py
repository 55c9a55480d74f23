"""Every module-level name in src/hannum is used by src, or exported.

A module-level function, class or assigned name that no src code reads and
that its module's __all__ does not list is a second copy waiting to drift,
or code that nothing runs. The scan is by ast: a use is a loaded name, an
attribute, a name imported from another module, or a name inside a string
annotation; docstrings and comments are not code, so they never count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hannum"


def _defined(tree: ast.Module) -> list[str]:
    """The module-level function, class and assigned names of tree."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in tree's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree: ast.Module):
    """Every annotation expression in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """The names tree reads: loaded names, attributes, names imported from
    other modules and the names of string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def unused_names(src: Path = SRC) -> list[str]:
    """module.name for each module-level name of src that src never uses and
    whose module does not export."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    used = set().union(*map(_used, trees.values()))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name not in used and name not in _exported(tree)
    ]


def test_every_src_name_is_used_or_exported():
    assert unused_names() == []


def test_the_scan_finds_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["shown"]\n'
        "def shown(x: \"Hint\") -> None:\n"
        '    """unused is only named here."""\n'
        "    return helper(x)  # and in this comment: unused\n"
        "def helper(x):\n"
        "    return x\n"
        "class Hint:\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "KEPT, LOST = 1, 2\n"
        "print(KEPT)\n",
        encoding="utf-8",
    )
    assert unused_names(tmp_path) == ["a.unused", "a.LOST"]
