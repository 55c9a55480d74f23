"""Bidirectional converter between integers and Chinese numeral expressions.

The package models the numeral grammar at eight historical stages, from
Shang oracle inscriptions to contemporary standard usage. Each stage is an
era profile controlling the junction word yòu, the gap word líng, where the
digit [1] must or must not appear, and whether liǎng may express 2. On top
of the core transducer sit an era-consistency classifier and a corpus
scanner.

>>> import hannum
>>> hannum.render_integer(105).text()
'一百零五'
>>> hannum.render_integer(105, "suanshushu").text()
'百五'
>>> hannum.parse_text("一百零五").value
105
>>> [e.value for e in hannum.classify("十有五").consistent]
['shang-oracle', 'zhou-bronze', 'warring-states']
"""

from .chronolect import (
    EraConsistencyReport,
    EraVerdict,
    classify,
    feature_profile,
)
from .core import (
    CHRONOLOGY,
    DAN,
    DEFAULT_OPTIONS,
    EARLY_ERAS,
    LIANG,
    LING,
    LING_ALT,
    OUTER_EXPONENTS,
    RANK_EXPONENTS,
    YOU,
    Era,
    EraProfile,
    LeadingOnePolicy,
    LingPolicy,
    Morpheme,
    MorphemeKind,
    NonGenerableMorpheme,
    OneBeforeInnerMultiplicand,
    RenderOptions,
    Script,
    TwoStyle,
    YouPolicy,
    digit,
    era_profile,
    pivot,
    surface,
    token_notation,
)
from .generate import (
    AllZeroAmount,
    EllipsisUnavailable,
    MonthOutOfRange,
    NumeralExpression,
    NumeralPhrase,
    RenderError,
    StyleNotAllowed,
    UnitWord,
    ValueOutOfRange,
    ZeroInexpressible,
    render_currency,
    render_duration,
    render_elliptic,
    render_integer,
    render_ordinal,
    render_quantity,
    unit_word,
)
from .parse import (
    Features,
    NumeralParseError,
    ParseErrorKind,
    ParseOutcome,
    ScriptHint,
    parse,
    parse_text,
    tokenize,
)
from .scan import ScanRecord, ScanSummary, scan_text
from .selftest import SelfTestReport, run_selftest

__version__ = "0.1.0"

__all__ = [
    "CHRONOLOGY",
    "DAN",
    "DEFAULT_OPTIONS",
    "EARLY_ERAS",
    "LIANG",
    "LING",
    "LING_ALT",
    "OUTER_EXPONENTS",
    "RANK_EXPONENTS",
    "YOU",
    "AllZeroAmount",
    "EllipsisUnavailable",
    "Era",
    "EraConsistencyReport",
    "EraProfile",
    "EraVerdict",
    "Features",
    "LeadingOnePolicy",
    "LingPolicy",
    "MonthOutOfRange",
    "Morpheme",
    "MorphemeKind",
    "NonGenerableMorpheme",
    "NumeralExpression",
    "NumeralParseError",
    "NumeralPhrase",
    "OneBeforeInnerMultiplicand",
    "ParseErrorKind",
    "ParseOutcome",
    "RenderError",
    "RenderOptions",
    "ScanRecord",
    "ScanSummary",
    "Script",
    "ScriptHint",
    "SelfTestReport",
    "StyleNotAllowed",
    "TwoStyle",
    "UnitWord",
    "ValueOutOfRange",
    "YouPolicy",
    "ZeroInexpressible",
    "classify",
    "digit",
    "era_profile",
    "feature_profile",
    "parse",
    "parse_text",
    "pivot",
    "render_currency",
    "render_duration",
    "render_elliptic",
    "render_integer",
    "render_ordinal",
    "render_quantity",
    "run_selftest",
    "scan_text",
    "surface",
    "token_notation",
    "tokenize",
    "unit_word",
    "__version__",
]
