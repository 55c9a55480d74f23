"""The group-memoized parser against the token-at-a-time reference walk.

hannum.parse reads a numeral one myriad group at a time and keeps each
group's reading in the memo of its lane table, which is keyed by grammar;
tests/reference_walk.py keeps the walk that stepped through every
token, memoized nothing and read every era in a lane of its own. Under every
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
    YouPolicy,
    digit,
    era_profile,
    pivot,
)
from hannum.generate import RenderError
from test_parser import SHORT_SEQUENCES, error_fields
from test_render_pin import OPTION_SETS

P = importlib.import_module("hannum.parse")
G = importlib.import_module("hannum.generate")


def _custom(era, **changes):
    return dataclasses.replace(era_profile(era), **changes)


# Contemporary under each pairing of the two [1] policies, suanshushu up to
# 10^12 - 1 (a bare sole multiplier past the first group), dunhuang with
# [1] before every pivot and before every sole multiplier, contemporary with
# only its ceiling changed (read through contemporary's own table), and
# zhou-bronze without you (a grammar no standard era has).
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
    _custom(Era.CONTEMPORARY, max_value=10**9 + 7),
    _custom(Era.ZHOU_BRONZE, you_policy=YouPolicy.FORBIDDEN),
]
GRAMMARS = [None, *CHRONOLOGY, *CUSTOM]


def _lane_tables():
    return [*P._TABLES.values(), P._ALL_LANES]


def _clear_memos():
    for lanes in _lane_tables():
        lanes.memo.clear()
    P._STORED[0] = 0
    G._group_memo.clear()


def _reading(parse, classify, read_span, toks):
    """Everything the walk yields for toks, as comparable values."""
    seen = []
    for grammar in GRAMMARS:
        try:
            seen.append(parse(toks, grammar))
        except NumeralParseError as exc:
            seen.append(error_fields(exc))
    report = classify(toks)
    seen.append(report.as_dict())
    seen.extend(error_fields(v.error) for v in report.verdicts if v.error)
    outcome, failure, eras, features = read_span(toks)
    seen.append((outcome, failure, eras, features))
    return seen


def _reference_read_span(toks):
    """The reference twin's _read_span, its error read as hannum's failure."""
    outcome, error, eras, features = reference_walk._read_span(toks)
    failure = error and (error.kind, error.position, error.message)
    return outcome, failure, eras, features


def _reference(toks):
    return _reading(
        reference_walk.parse, reference_walk.classify, _reference_read_span, toks
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
        assert sum(len(lanes.memo) for lanes in _lane_tables()) <= 2


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
    assert last in P._table(None).memo
    # A longer group is read but never stored.
    longer = P.tokenize("一億零三千有五百有六十有七有")
    with pytest.raises(NumeralParseError):
        P.parse(longer, None)
    assert len(P._table(None).memo) == 2


# Every sequence of one to three morphemes after [5][10^4], after [5][10^8]
# and after a bare [10^8]: 21,717 inputs whose tail the walk reads as a later
# group, with the outer pivot before it fixing the ranks and the links.
LATER_GROUPS = [
    (*head, *tail)
    for head in ((digit(5), pivot(4)), (digit(5), pivot(8)), (pivot(8),))
    for tail in SHORT_SEQUENCES
]


def _assert_memo_entries_sound():
    """Check every stored reading: _walk appends a group's failures, cut
    down to the lanes alive as the group opens, and reads the elliptic fork
    after them. That is sound only if every failure names some lane, no lane
    fails twice, and no failing lane is also alive at the close or on the
    fork."""
    stored = 0
    for lanes in _lane_tables():
        for out, events, _, _, _ in lanes.memo.values():
            stored += 1
            if events is None:
                continue
            failures, _, fork = events
            seen = out | (fork[0] if fork else 0)
            for mask, _, _, _ in failures:
                assert mask, events
                assert not mask & seen, (out, events)
                seen |= mask
    return stored


@pytest.mark.gate
def test_later_groups_match_reference():
    # About 15 s on two CPUs, so it runs with the gate.
    assert len(LATER_GROUPS) == 3 * 7239 == 21_717
    _clear_memos()
    for toks in LATER_GROUPS:
        assert _memoized(toks) == _reference(toks), toks
    assert _assert_memo_entries_sound() > 100_000


def test_memo_entries_keep_each_lane_in_one_outcome():
    # The memos of the nine standard grammars' tables and classify's, filled
    # by every short sequence and every later group above. Every walk of
    # classify's table puts each lane in exactly one place: the unit
    # reading, the elliptic one, or one failure.
    _clear_memos()
    for toks in (*SHORT_SEQUENCES, *LATER_GROUPS):
        alive, _, elliptic, _, fails, _, _ = P._walk_all(toks)
        assert not alive & elliptic, toks
        seen = alive | elliptic
        for mask, _, _, _ in fails:
            assert mask and not mask & seen, (toks, fails)
            seen |= mask
        assert seen == P._ALL_LANES.all, (toks, fails)
        for grammar in (None, *CHRONOLOGY):
            try:
                P.parse(toks, grammar)
            except NumeralParseError:
                pass
    assert _assert_memo_entries_sound() == 116_660
