"""hannum's public names: each module's __all__ is their one list.

The package re-exports each module with a star import and builds its own
__all__ by joining the modules' lists, so a public name is written once,
in its module.
"""

import importlib
import types

import hannum

# The six modules in import order; hannum.parse names the function, so the
# modules are read from the import system.
_MODULES = [
    importlib.import_module(f"hannum.{name}")
    for name in ("chronolect", "core", "generate", "parse", "scan", "selftest")
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
    assert hannum.summary_csv_rows is _MODULES[4].summary_csv_rows


def test_parse_is_the_function_not_the_module():
    assert isinstance(hannum.parse, types.FunctionType)
    assert hannum.parse is hannum.parse_text.__globals__["parse"]
