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

import importlib

from .core import *
from .generate import *
from .parse import *  # hannum.parse is the function

__version__ = "0.1.0"

# The transducer loads with the package; these modules load on first use
# (PEP 562), so a render or parse never pays for them. Each is listed with
# the names its __all__ exports, so a name loads its own module and no
# other, and a name none of them exports loads none.
_LAZY = {
    "chronolect": ("EraVerdict", "EraConsistencyReport", "classify",
                   "feature_profile"),
    "phrase": ("NumeralPhrase", "UnitWord", "render_currency", "render_duration",
               "render_ordinal", "render_quantity", "unit_word"),
    "scan": ("ScanRecord", "ScanSummary", "scan_text", "summary_csv_rows"),
    "selftest": ("IntegerFixture", "PhraseFixture", "SelfTestReport",
                 "run_selftest"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _module(name):
    return importlib.import_module("." + name, __name__)


def __getattr__(name):
    """A lazy module, or a name a lazy module exports; __all__ is the union
    of the seven modules' lists, as asyncio builds it. Each answer is bound
    here, so it is looked up once."""
    if name == "__all__":
        value = [
            *(n for m in ("chronolect", "core", "generate", "parse", "phrase",
                          "scan", "selftest") for n in _module(m).__all__),
            "__version__",
        ]
    elif name in _LAZY:
        return _module(name)  # its import has bound it here
    elif name in _HOME:
        value = getattr(_module(_HOME[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
