"""hannum's public names: each module's __all__ is their one list.

The package re-exports core, generate and parse with a star import and
the names of chronolect, phrase, scan and selftest on first use, and builds
its own __all__ by joining the seven modules' lists, so a public name is
written once, in its module; the package's table of lazy names is checked
against those lists here.
"""

import importlib
import json
import pickle
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import hannum

# The seven modules in import order; hannum.parse names the function, so the
# modules are read from the import system.
_MODULES = [
    importlib.import_module(f"hannum.{name}")
    for name in ("chronolect", "core", "generate", "parse", "phrase", "scan",
                 "selftest")
]

# Every name the package exported before it derived its list.
_EARLIER_NAMES = {
    "AllZeroAmount", "CHRONOLOGY", "DAN", "DEFAULT_OPTIONS", "EARLY_ERAS",
    "EllipsisUnavailable", "Era", "EraConsistencyReport", "EraProfile",
    "EraVerdict", "Features", "LIANG", "LING", "LING_ALT", "LeadingOnePolicy",
    "LingPolicy", "MonthOutOfRange", "Morpheme", "MorphemeKind",
    "NonGenerableMorpheme", "NumeralExpression", "NumeralParseError",
    "NumeralPhrase", "OUTER_EXPONENTS", "OneBeforeInnerMultiplicand",
    "ParseErrorKind", "ParseOutcome", "RANK_EXPONENTS", "RenderError",
    "RenderOptions", "ScanRecord", "ScanSummary", "Script", "ScriptHint",
    "SelfTestReport", "StyleNotAllowed", "TwoStyle", "UnitWord",
    "ValueOutOfRange", "YOU", "YouPolicy", "ZeroInexpressible", "__version__",
    "classify", "digit", "era_profile", "feature_profile", "parse",
    "parse_text", "pivot", "render_currency", "render_duration",
    "render_elliptic", "render_integer", "render_ordinal", "render_quantity",
    "run_selftest", "scan_text", "surface", "token_notation", "tokenize",
    "unit_word",
}


def test_the_package_list_is_the_modules_lists():
    joined = [name for module in _MODULES for name in module.__all__]
    assert hannum.__all__ == [*joined, "__version__"]
    assert len(set(hannum.__all__)) == len(hannum.__all__)


def test_every_name_resolves_and_star_binds_exactly_them():
    for name in hannum.__all__:
        assert hasattr(hannum, name), name
    scope: dict[str, object] = {}
    exec("from hannum import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(hannum.__all__)


def test_the_earlier_names_are_all_kept():
    assert len(_EARLIER_NAMES) == 62
    assert _EARLIER_NAMES <= set(hannum.__all__)
    added = set(hannum.__all__) - _EARLIER_NAMES
    assert added == {"MORPHEMES", "summary_csv_rows", "IntegerFixture", "PhraseFixture"}
    assert hannum.MORPHEMES is _MODULES[1].MORPHEMES
    assert hannum.summary_csv_rows is _MODULES[5].summary_csv_rows


def test_parse_is_the_function_not_the_module():
    assert isinstance(hannum.parse, types.FunctionType)
    assert hannum.parse is hannum.parse_text.__globals__["parse"]


# The package loads core, parse and generate with itself, and chronolect,
# phrase, scan and selftest on first use; each check below runs in a fresh
# interpreter, whose modules no other test has loaded.
_SRC = Path(__file__).resolve().parent.parent / "src"
_EAGER = ["hannum", "hannum.core", "hannum.generate", "hannum.parse"]


def _fresh(code):
    """Run code after `import hannum` in a fresh interpreter, and return
    what it prints as JSON, with the hannum modules it then holds."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(_SRC)!r})\nimport hannum\n"
    tail = (
        '\nprint(json.dumps([out, sorted(m for m in sys.modules'
        ' if m.partition(".")[0] == "hannum")]))'
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", prelude + textwrap.dedent(code) + tail],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_only_the_transducer():
    out, loaded = _fresh("out = None")
    assert loaded == _EAGER


def test_classify_loads_chronolect_alone():
    out, loaded = _fresh("out = hannum.classify('十有五').consistent[0].value")
    assert out == "shang-oracle"
    assert loaded == sorted([*_EAGER, "hannum.chronolect"])


def test_the_cli_loads_selftest_for_selftest_alone(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("共十有五人。\n", encoding="utf-8")
    out, loaded = _fresh(f"""
        import contextlib, io
        import hannum.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [hannum.cli.main(argv) for argv in (
                ["scan", "--json", {str(doc)!r}], ["parse", "十五"],
                ["classify", "十五"], ["gen", "15"])]
        out = [codes, "hannum.selftest" in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()) as text:
            out.append(hannum.cli.main(["selftest", "--max", "0"]))
        out.append(text.getvalue().startswith("selftest: pass"))
    """)
    assert out == [[0, 0, 0, 0], False, 0, True]
    assert "hannum.selftest" in loaded


def test_dir_lists_every_export_before_a_lazy_load():
    out, loaded = _fresh("""
        before = sorted(sys.modules)
        names = dir(hannum)
        out = [before, sorted(set(hannum.__all__) - set(names)), names == sorted(names)]
    """)
    before, missing, ordered = out
    assert [m for m in before if m.startswith("hannum")] == _EAGER
    assert missing == [] and ordered


def test_star_import_in_a_fresh_interpreter():
    out, _ = _fresh("""
        scope = {}
        exec("from hannum import *", scope)
        del scope["__builtins__"]
        out = [sorted(scope), sorted(hannum.__all__), len(hannum.__all__)]
    """)
    assert out[0] == out[1] and out[2] == 66


def test_parse_stays_the_function_after_every_lazy_load():
    out, loaded = _fresh("""
        import types
        hannum.classify, hannum.scan_text, hannum.run_selftest
        import hannum.cli, hannum.chronolect, hannum.scan, hannum.selftest
        out = [isinstance(hannum.parse, types.FunctionType),
               hannum.parse is hannum.scan.parse is hannum.chronolect.parse,
               hannum.scan is sys.modules["hannum.scan"]]
    """)
    assert out == [True, True, True]
    # selftest renders its phrase fixtures through phrase.
    assert len(loaded) == 9 and "hannum.phrase" in loaded


def test_an_unknown_name_is_an_attribute_error():
    out, loaded = _fresh("""
        out = []
        for name in ("no_such_name", "__no_such_dunder__", "cli"):
            try:
                getattr(hannum, name)
            except AttributeError as exc:
                out.append(str(exc))
    """)
    assert out == [
        f"module 'hannum' has no attribute {name!r}"
        for name in ("no_such_name", "__no_such_dunder__", "cli")
    ]
    # A name no lazy module exports is found in no row of the package's
    # table, so the lookup loads nothing.
    assert loaded == _EAGER


def test_the_lazy_table_is_the_lazy_modules_lists():
    # Every module of the package that it neither imports with itself nor
    # leaves to the cli has a row, and each row is that module's __all__.
    stems = {p.stem for p in (_SRC / "hannum").glob("*.py")}
    assert set(hannum._LAZY) == stems - {
        "__init__", "__main__", "cli", "core", "generate", "parse"
    }
    for name, names in hannum._LAZY.items():
        assert names == tuple(importlib.import_module(f"hannum.{name}").__all__)
    eager = {n for m in ("core", "generate", "parse") for n in
             importlib.import_module(f"hannum.{m}").__all__}
    assert not eager & set(hannum._HOME)


def test_a_render_and_a_parse_load_only_the_eager_modules():
    out, loaded = _fresh("""
        out = [hannum.render_integer(105).text(),
               hannum.parse_text("一百零五").value,
               hannum.parse_text("yī bǎi líng wǔ", hannum.Era.CONTEMPORARY).value]
    """)
    assert out == ["一百零五", 105, 105]
    assert loaded == _EAGER


@pytest.mark.parametrize("name", hannum._LAZY["phrase"])
def test_a_phrase_name_loads_phrase_alone(name):
    out, loaded = _fresh(f"out = hannum.{name}.__module__")
    assert out == "hannum.phrase"
    assert loaded == sorted([*_EAGER, "hannum.phrase"])


def test_classify_and_scan_json_never_load_phrase(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("共十有五人，二〇二六年。\n", encoding="utf-8")
    out, loaded = _fresh(f"""
        import contextlib, io
        import hannum.cli
        report = hannum.classify("十有五")
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = hannum.cli.main(["scan", "--json", {str(doc)!r}])
        out = [report.consistent[0].value, code,
               text.getvalue().count("\\n")]
    """)
    assert out[:2] == ["shang-oracle", 0] and out[2] > 1
    assert "hannum.phrase" not in loaded
    assert loaded == sorted(
        [*_EAGER, "hannum.chronolect", "hannum.cli", "hannum.scan"]
    )


def test_phrase_records_unpickle_after_import_hannum_alone():
    word = hannum.unit_word("層")
    phrase = hannum.render_currency(3, 0, 5)
    code = (
        "import json, pickle, sys\n"
        f"sys.path.insert(0, {str(_SRC)!r})\n"
        "import hannum\n"
        "before = sorted(m for m in sys.modules if m.startswith('hannum'))\n"
        "word, phrase = pickle.loads(sys.stdin.buffer.read())\n"
        "print(json.dumps([before, type(word).__module__, word.text(),"
        " type(phrase).__module__, phrase.text()], ensure_ascii=False))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], input=pickle.dumps((word, phrase)),
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout) == [
        _EAGER, "hannum.phrase", "層", "hannum.phrase", phrase.text()
    ]
