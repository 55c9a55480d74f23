"""Every module-level name in src/hannum is used by src, or exported, and
every module-level import is read by its own module.

A module-level function, class or assigned name that no src code reads and
that its module's __all__ does not list is a second copy waiting to drift,
or code that nothing runs. The scan is by ast: a use is a loaded name, an
attribute, a name imported from another module, or a name inside a string
annotation; docstrings and comments are not code, so they never count.

An import that its module never reads, as a loaded name or a name inside a
string annotation, and that its __all__ does not list, is left over from
code that is gone. The only exceptions are PATCH_POINTS.
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
    """The names listed in tree's __all__, if it has one: its string items,
    where others are spliced in from other modules' lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
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


def _loaded(tree: ast.AST) -> set[str]:
    """The names tree loads, its string annotations' included."""
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded |= _loaded(ast.parse(node.value, mode="eval"))
    return loaded


def _used(tree: ast.Module) -> set[str]:
    """The names tree reads: loaded names, attributes, names imported from
    other modules and the names of string annotations."""
    used = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
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


def _imported(tree: ast.Module) -> list[str]:
    """The names tree's module-level imports bind, less star imports and
    __future__ features."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names if a.name != "*")
    return names


# Imported names that their modules keep bound but never read: bench/spans.py
# wraps them, and tests/test_patch_points.py pins them.
PATCH_POINTS = ["chronolect.parse", "scan.classify", "scan.parse"]


def unread_imports(src: Path = SRC) -> list[str]:
    """module.name for each name a module-level import of src binds that its
    module neither reads nor exports."""
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _loaded(tree) | _exported(tree)
        unread += [f"{path.stem}.{n}" for n in _imported(tree) if n not in read]
    return unread


def test_every_src_name_is_used_or_exported():
    assert unused_names() == []


def test_every_src_import_is_read():
    # The patch points, and nothing else; one that src starts to read again
    # leaves the list.
    assert unread_imports() == PATCH_POINTS


def test_the_scan_finds_an_unread_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path, re\n"
        "from json import dumps, loads as unread\n"
        "from typing import *\n"
        "from .b import shown\n"
        '__all__ = ["shown"]\n'
        "def f(x: \"Pattern\"):\n"
        '    """re is only named here."""\n'
        "    return os.sep, dumps(x)  # and in this comment: re\n",
        encoding="utf-8",
    )
    assert unread_imports(tmp_path) == ["a.re", "a.unread"]


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


def era_profile_callers(path: Path = SRC / "generate.py") -> list[str]:
    """The functions of path's module that call era_profile, by name or as
    an attribute, one entry per call; a call outside every function is
    listed as <module>."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "era_profile":
                    callers.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return callers


def era_from_string_calls(path: Path = SRC / "parse.py") -> list[int]:
    """The line of each call to Era.from_string in path's module, Era named
    bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_string"
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None)) == "Era"
    ]


def test_parse_resolves_a_name_through_era_profile_alone():
    # A loose name reaches parse's era reader through era_profile, as a
    # profile does, never on a path of its own.
    assert era_from_string_calls() == []


def test_the_scan_finds_every_era_from_string_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "E = Era.from_string('song')\n"
        "def f(name):\n"
        "    return Era.from_string(name), core.Era.from_string(name), from_string(name)\n",
        encoding="utf-8",
    )
    assert era_from_string_calls(tmp_path / "a.py") == [1, 3, 3]


def test_generate_reads_its_era_in_one_place():
    # A render plan, the profile and its group rules, is resolved by _plan
    # alone: generate.py calls era_profile only there and has no second
    # step for the rules.
    assert era_profile_callers() == ["_plan"]
    tree = ast.parse((SRC / "generate.py").read_text(encoding="utf-8"))
    assert "_rules" not in _defined(tree)
    # The phrase renderers resolve theirs through generate's _plan: phrase.py
    # calls era_profile nowhere, defines no plan or rules of its own, and
    # each renderer that takes an era calls _plan.
    assert era_profile_callers(SRC / "phrase.py") == []
    tree = ast.parse((SRC / "phrase.py").read_text(encoding="utf-8"))
    assert not {"_plan", "_rules", "_options"} & set(_defined(tree))
    takes_era = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and "era" in [a.arg for a in node.args.args]
    }
    assert sorted(takes_era) == ["render_ordinal", "render_quantity"]
    for node in takes_era.values():
        assert "_plan" in {
            n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }, node.name


def test_the_scan_finds_every_era_profile_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "PLANS = [era_profile(e) for e in ERAS]\n"
        "def f(era):\n"
        "    def g():\n"
        "        return era_profile(era)\n"
        "    return era_profile(era), g, core.era_profile(era)\n",
        encoding="utf-8",
    )
    assert era_profile_callers(tmp_path / "a.py") == ["<module>", "g", "f", "f"]


def handlers_with_try(path: Path = SRC / "cli.py") -> list[str]:
    """The module-level _cmd_* functions of path's module that hold a try
    statement anywhere in their bodies."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_cmd_")
        and any(isinstance(n, (ast.Try, ast.TryStar)) for n in ast.walk(node))
    ]


def caught_names(path: Path = SRC / "cli.py") -> list[tuple[str, str]]:
    """(owner, name) for each name that an except clause of path's module
    names, bare or as an attribute, where owner is the module-level function
    or class the clause sits in, or <module>."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    caught = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught += [
                    (owner, n.id if isinstance(n, ast.Name) else n.attr)
                    for n in ast.walk(node.type)
                    if isinstance(n, (ast.Name, ast.Attribute))
                ]
    return caught


def test_cli_handlers_hold_no_try():
    # A handler computes and writes; it never turns a failure into an exit
    # code of its own.
    assert handlers_with_try() == []


def test_cli_maps_library_errors_in_one_place():
    # _run, which main calls, is the one place that maps a parse rejection
    # to 1 and a render refusal to 2.
    library = {"NumeralParseError", "RenderError"}
    assert [c for c in caught_names() if c[1] in library] == [
        ("_run", "NumeralParseError"), ("_run", "RenderError")
    ]


def test_the_scan_finds_every_try_and_catch(tmp_path):
    (tmp_path / "a.py").write_text(
        "try:\n"
        "    import fast\n"
        "except ImportError:\n"
        "    fast = None\n"
        "def _cmd_a(args):\n"
        "    def inner():\n"
        "        try:\n"
        "            return 1\n"
        "        except (parse.NumeralParseError, KeyError):\n"
        "            return 2\n"
        "    return inner()\n"
        "def _cmd_b(args):\n"
        "    return 0\n"
        "def _helper():\n"
        "    try:\n"
        "        pass\n"
        "    except RenderError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert handlers_with_try(tmp_path / "a.py") == ["_cmd_a"]
    assert caught_names(tmp_path / "a.py") == [
        ("<module>", "ImportError"),
        ("_cmd_a", "NumeralParseError"), ("_cmd_a", "KeyError"), ("_cmd_a", "parse"),
        ("_helper", "RenderError"),
    ]
