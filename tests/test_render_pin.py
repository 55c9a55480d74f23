"""sha256 pins over render outcomes.

- render_integer under every standard era and every option set;
- render_integer under the 48 era x [1]-policy custom profiles, with and
  without leading_ten_one;
- render_elliptic and render_quantity over profiles and options that break
  several rules at once.

Each case records either the result (every script's text, and for
render_integer the elliptic flag and the era) or the exception it raised
(class and message), so the pins also fix which error wins when several
apply.
"""

import dataclasses
import hashlib
import itertools
import random

from hannum import (
    CHRONOLOGY,
    DEFAULT_OPTIONS,
    Era,
    RenderOptions,
    Script,
    TwoStyle,
    render_elliptic,
    render_integer,
    render_quantity,
)
from hannum.core import LeadingOnePolicy, OneBeforeInnerMultiplicand, era_profile
from hannum.generate import RenderError

# The 36 option sets: two_style x use_you x elliptic x leading_ten_one. The
# all-default set is DEFAULT_OPTIONS itself, so that render_integer reads each
# era's constant plan for it; every other set is a fresh object.
OPTION_SETS = [
    RenderOptions(two_style=two, use_you=you, elliptic=ell, leading_ten_one=ten)
    for two, you, ell, ten in itertools.product(
        TwoStyle, (None, False, True), (False, True), (False, True)
    )
]
OPTION_SETS = [DEFAULT_OPTIONS if o == DEFAULT_OPTIONS else o for o in OPTION_SETS]

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

# sha256 of the listing below, taken from the renderer that refuses a
# banned You with the other style refusals, before it reads the value, so
# that an option set refused for 5 is refused for 0 and for every other n.
GOLDEN = "0f9040b035a860bcf99a7c7388f9eaf699d3798f1bf68ad512ef79317750091d"


def _outcome(n, era, opts, render=render_integer) -> str:
    try:
        expr = render(n, era, opts)
    except RenderError as exc:
        return f"{type(exc).__name__}: {exc}"
    texts = " | ".join(expr.text(s) for s in Script)
    if render is not render_integer:
        return texts
    return f"{texts} | {expr.elliptic} {expr.era.value}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_render_outcomes_pinned():
    assert len(OPTION_SETS) == 36
    assert sum(opts is DEFAULT_OPTIONS for opts in OPTION_SETS) == 1
    lines = [
        _outcome(n, era, opts)
        for era in CHRONOLOGY
        for opts in OPTION_SETS
        for n in VALUES
    ]
    assert len(lines) == len(CHRONOLOGY) * 36 * len(VALUES)
    assert _digest(lines) == GOLDEN


# Every era under each pairing of the two [1] policies, its ceiling raised
# to the largest pivot's reach so that every group of VALUES renders.
CUSTOM_PROFILES = [
    dataclasses.replace(
        era_profile(era),
        leading_one_policy=lead,
        inner_multiplicand_one=inner,
        max_value=10**12 - 1,
    )
    for era in CHRONOLOGY
    for lead in LeadingOnePolicy
    for inner in OneBeforeInnerMultiplicand
]

# sha256 of the listing below, taken from the renderer that read the two
# [1] policies into head bits of its own, before it read parse's [1] rule.
CUSTOM_GOLDEN = "f34fd2e5fbbbe395f67ba303cadad023d05559b3eeb3ea89a98806b8ba73e118"


def test_custom_profile_outcomes_pinned():
    assert len(CUSTOM_PROFILES) == 48
    lines = [
        _outcome(n, profile, RenderOptions(leading_ten_one=ten))
        for profile in CUSTOM_PROFILES
        for ten in (False, True)
        for n in VALUES
    ]
    assert _digest(lines) == CUSTOM_GOLDEN


_CONTEMPORARY = era_profile(Era.CONTEMPORARY)
ERROR_PROFILES = [
    _CONTEMPORARY,
    era_profile(Era.SONG_QIN),
    dataclasses.replace(_CONTEMPORARY, liang_allowed=False),
    dataclasses.replace(_CONTEMPORARY, elliptic_allowed=False),
]
ERROR_VALUES = [-1, "x", 0, 2, 3, 150, 10**12]


def _quantity(classifier):
    return lambda n, profile, opts: render_quantity(n, classifier, profile, opts)


# sha256 of the listing below, taken from the renderers that refuse a
# banned You with the other style refusals, before the value's checks and
# before render_elliptic reads its form back under the profile, and that
# refuse every style before what a quantity phrase allows.
ERROR_ORDER_GOLDEN = "d264bb702151c36298c7de8f439e012ab0c76432e606561e8e82720355a3cb10"


def test_elliptic_and_quantity_error_order_pinned():
    option_sets = [
        RenderOptions(two_style=two, use_you=you, elliptic=ell)
        for two, you, ell in itertools.product(
            TwoStyle, (None, False, True), (False, True)
        )
    ]
    lines = [
        _outcome(n, profile, opts, render)
        for render in (render_elliptic, _quantity("個"), _quantity("兩"))
        for profile in ERROR_PROFILES
        for opts in option_sets
        for n in ERROR_VALUES
    ]
    assert len(lines) == 3 * 4 * 18 * 7
    assert _digest(lines) == ERROR_ORDER_GOLDEN
