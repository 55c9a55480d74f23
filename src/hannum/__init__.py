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

# The transducer loads with the package; these load on first use, in
# dependency order (PEP 562), so a render or parse never pays for them.
_LAZY = ("chronolect", "scan", "selftest")


def _module(name):
    return importlib.import_module("." + name, __name__)


def __getattr__(name):
    """A lazy module, or a name of the first lazy module that exports it;
    __all__ is the union of the six modules' lists, as asyncio builds it.
    Each answer is bound here, so it is looked up once."""
    if name == "__all__":
        value = [
            *(n for m in ("chronolect", "core", "generate", "parse", "scan",
                          "selftest") for n in _module(m).__all__),
            "__version__",
        ]
    else:
        # No module exports a dunder, so a probe for one loads nothing.
        for lazy in () if name.startswith("__") else _LAZY:
            module = _module(lazy)
            if name == lazy:
                return module  # its import has bound it here
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
