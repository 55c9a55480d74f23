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

from . import chronolect, core, generate, scan, selftest
from .chronolect import *
from .core import *
from .generate import *
from .parse import *
from .parse import __all__ as _parse_all  # hannum.parse is the function
from .scan import *
from .selftest import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# exports their union, as asyncio does.
__all__ = [
    *chronolect.__all__,
    *core.__all__,
    *generate.__all__,
    *_parse_all,
    *scan.__all__,
    *selftest.__all__,
    "__version__",
]
