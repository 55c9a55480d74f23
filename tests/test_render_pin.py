"""A sha256 pin over render outcomes: every standard era, every option set.

Each case records either the expression (every script's text, the elliptic
flag and the era) or the exception it raised (class and message), so the
pin also fixes which error wins when several apply.
"""

import hashlib
import itertools
import random

from hannum import CHRONOLOGY, RenderOptions, Script, TwoStyle, render_integer
from hannum.core import era_profile
from hannum.generate import RenderError

# The 36 option sets: two_style x use_you x elliptic x leading_ten_one.
OPTION_SETS = [
    RenderOptions(two_style=two, use_you=you, elliptic=ell, leading_ten_one=ten)
    for two, you, ell, ten in itertools.product(
        TwoStyle, (None, False, True), (False, True), (False, True)
    )
]

_CEILINGS = sorted({era_profile(e).max_value for e in CHRONOLOGY})
_rng = random.Random(20260415)
VALUES = [
    *range(-1, 301),
    *(c + d for c in _CEILINGS for d in (-1, 0, 1)),
    "x",
    2.0,
    *(_rng.randint(0, 10**12) for _ in range(400)),
    # Mostly-zero digit strings, so rank gaps inside and across groups recur.
    *(
        int("".join(_rng.choices("0000001123456789", k=_rng.randint(1, 12))))
        for _ in range(400)
    ),
]

# sha256 of the listing below, taken from the renderer that looked up each
# group's era profile again per group, before the rules were resolved once.
GOLDEN = "ab4818bc527c7771537be8a140b01a7e8fca7e59ff5a38a0533cc5ad513a330a"


def _outcome(n, era, opts) -> str:
    try:
        expr = render_integer(n, era, opts)
    except RenderError as exc:
        return f"{type(exc).__name__}: {exc}"
    texts = " | ".join(expr.text(s) for s in Script)
    return f"{texts} | {expr.elliptic} {expr.era.value}"


def test_render_outcomes_pinned():
    assert len(OPTION_SETS) == 36
    lines = [
        _outcome(n, era, opts)
        for era in CHRONOLOGY
        for opts in OPTION_SETS
        for n in VALUES
    ]
    assert len(lines) == len(CHRONOLOGY) * 36 * len(VALUES)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN
