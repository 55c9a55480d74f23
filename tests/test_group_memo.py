"""The group-memoized parser against the token-at-a-time reference walk.

hannum.parse reads a numeral one myriad group at a time and keeps each
group's reading in its lane table's memo; tests/reference_walk.py keeps the
walk that stepped through every token and memoized nothing. Under every
grammar both must read every input alike: value, error kind, position and
message, diagnostics and features, and so must classify() and _read_span().
Each input is read cold (every memo empty), warm, and again with both the
parser's and the renderer's memo bounds cut to 2.
"""

import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_walk
from hannum import CHRONOLOGY, NumeralParseError, classify, render_integer
from hannum.core import (
    MORPHEMES,
    Era,
    LeadingOnePolicy,
    OneBeforeInnerMultiplicand,
    era_profile,
)
from hannum.generate import RenderError
from test_render_pin import OPTION_SETS

P = importlib.import_module("hannum.parse")
G = importlib.import_module("hannum.generate")


def _custom(era, **changes):
    return dataclasses.replace(era_profile(era), **changes)


# Contemporary under each pairing of the two [1] policies, suanshushu up to
# 10^12 - 1 (a bare sole multiplier past the first group), and dunhuang with
# [1] before every pivot and before every sole multiplier.
CUSTOM = [
    *(
        _custom(Era.CONTEMPORARY, leading_one_policy=lead, inner_multiplicand_one=inner)
        for lead in LeadingOnePolicy
        for inner in OneBeforeInnerMultiplicand
    ),
    _custom(Era.SUANSHUSHU, max_value=10**12 - 1),
    _custom(
        Era.DUNHUANG,
        leading_one_policy=LeadingOnePolicy.REQUIRED_ALL,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.REQUIRE,
    ),
]
GRAMMARS = [None, *CHRONOLOGY, *CUSTOM]


def _lane_tables():
    return [
        P._LENIENT_LANES, P._ALL_LANES, *P._ERA_LANES.values(),
        *(P._profile_lanes(profile) for profile in CUSTOM),
    ]


def _clear_memos():
    for lanes in _lane_tables():
        lanes.memo.clear()
    G._group_memo.clear()


def _reading(parse, classify, read_span, toks):
    """Everything the walk yields for toks, as comparable values."""
    seen = []
    for grammar in GRAMMARS:
        try:
            seen.append(parse(toks, grammar))
        except NumeralParseError as exc:
            seen.append((exc.kind, exc.position, exc.message))
    seen.append(classify(toks).as_dict())
    outcome, error, eras, features = read_span(toks)
    error = error and (error.kind, error.position, error.message)
    seen.append((outcome, error, eras, features))
    return seen


def _reference(toks):
    return _reading(
        reference_walk.parse, reference_walk.classify, reference_walk._read_span, toks
    )


def _memoized(toks):
    return _reading(P.parse, classify, P._read_span, toks)


def _mutations(rng, toks):
    """toks with one morpheme inserted, duplicated or (if any remain) deleted."""
    at = rng.randrange(len(toks))
    out = [
        toks[:at] + (rng.choice(MORPHEMES),) + toks[at:],
        toks[:at] + (toks[at],) + toks[at:],
    ]
    if len(toks) > 1:
        out.append(toks[:at] + toks[at + 1:])
    return out


def _rendered(era, opts, n):
    """render_integer(n, era, opts)'s tokens, or None where it raises."""
    try:
        return render_integer(n, era, opts).tokens
    except RenderError:
        return None


def _rendered_inputs():
    rng = random.Random(20261018)
    inputs = []
    for era in CHRONOLOGY:
        ceiling = era_profile(era).max_value
        for opts in OPTION_SETS:
            # Small, up to the ceiling, and two digits then zeros, so that
            # elliptic option sets render too.
            values = [
                *(rng.randint(0, 10**4) for _ in range(3)),
                *(rng.randint(0, ceiling) for _ in range(3)),
                *(rng.randint(11, 99) * 10 ** rng.randint(1, 10) for _ in range(4)),
            ]
            for n in values:
                toks = _rendered(era, opts, n)
                if toks is not None:
                    inputs.append((era, opts, n, toks))
    return inputs


RENDERED = _rendered_inputs()
_rng = random.Random(10)
RANDOM = [
    tuple(_rng.choice(MORPHEMES) for _ in range(_rng.randint(5, 14)))
    for _ in range(600)
]


def _check(toks, monkeypatch):
    want = _reference(toks)
    _clear_memos()
    assert _memoized(toks) == want, toks  # cold
    assert _memoized(toks) == want, toks  # warm
    with monkeypatch.context() as patch:
        patch.setattr(P, "_GROUP_MEMO", 2)
        patch.setattr(G, "_GROUP_MEMO", 2)
        _clear_memos()
        assert _memoized(toks) == want, toks
        assert _memoized(toks) == want, toks
        assert all(len(lanes.memo) <= 2 for lanes in _lane_tables())


def test_rendered_and_mutated_inputs(monkeypatch):
    rng = random.Random(7)
    assert len(RENDERED) > 400
    for era, opts, n, toks in RENDERED:
        for case in (toks, *_mutations(rng, toks)):
            _check(case, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(G, "_GROUP_MEMO", 2)
            G._group_memo.clear()
            assert render_integer(n, era, opts).tokens == toks
            assert render_integer(n, era, opts).tokens == toks
            assert len(G._group_memo) <= 2


def test_random_inventory_sequences(monkeypatch):
    for toks in RANDOM:
        _check(toks, monkeypatch)


@st.composite
def _inputs(draw):
    """A rendering, perhaps mutated, or a random inventory sequence."""
    if draw(st.booleans()):
        length = draw(st.integers(min_value=5, max_value=14))
        return tuple(draw(st.lists(
            st.sampled_from(MORPHEMES), min_size=length, max_size=length
        )))
    era = draw(st.sampled_from(CHRONOLOGY))
    opts = draw(st.sampled_from(OPTION_SETS))
    n = draw(st.integers(min_value=0, max_value=era_profile(era).max_value))
    toks = _rendered(era, opts, n)
    if toks is None:
        toks = render_integer(n or 1, era).tokens
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return draw(st.sampled_from([toks, *_mutations(rng, toks)]))


@settings(max_examples=300, deadline=None)
@given(toks=_inputs())
def test_memoized_walk_matches_reference(toks):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check(toks, monkeypatch)


def test_trailing_digit_fork_positions_in_a_later_group():
    # The elliptic reading of a trailing digit closes the last group with
    # its own positions: song-qin's missing líng after 萬 is at token 2.
    toks = P.tokenize("三萬五百五")
    verdict = classify(toks).verdict_for(Era.SONG_QIN)
    error = verdict.error
    assert (error.kind.value, error.position) == ("RankOrderViolation", 2)
    assert _memoized(toks) == _reference(toks)


def test_longest_valid_group_is_stored():
    # After 億 the thousands are skipped, so a líng may lead the last group,
    # and four terms with yòu between them fill it: eleven tokens.
    toks = P.tokenize("一億零三千有五百有六十有七")
    _clear_memos()
    assert P.parse(toks, None).value == 100_003_567
    last = P._codes(toks)[1:]  # the group, preceded by the 億 before it
    assert len(last) - 1 == P._LONGEST_GROUP
    assert last in P._LENIENT_LANES.memo
    # A longer group is read but never stored.
    longer = P.tokenize("一億零三千有五百有六十有七有")
    with pytest.raises(NumeralParseError):
        P.parse(longer, None)
    assert len(P._LENIENT_LANES.memo) == 2
