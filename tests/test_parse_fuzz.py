"""parse_text on hostile input: only NumeralParseError escapes, whatever it
accepts lies within the grammar's ceiling and agrees with classify, and the
group memos of all lane tables together never grow past their one budget or
keep a group longer than a valid one, whatever grammars they are read
under."""

import gc
import importlib
import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hannum import (
    CHRONOLOGY,
    DEFAULT_OPTIONS,
    LING,
    NumeralParseError,
    RenderOptions,
    Script,
    ScriptHint,
    classify,
    era_profile,
    parse,
    parse_text,
    render_integer,
    tokenize,
)
from hannum.core import MORPHEMES, TwoStyle
from hannum.generate import ZeroInexpressible

# The builder of the 208 era grammars' profiles lives in
# scripts/lenient_audit.py, which audits under them.
_spec = importlib.util.spec_from_file_location(
    "lenient_audit",
    Path(__file__).resolve().parent.parent / "scripts" / "lenient_audit.py",
)
_lenient_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_lenient_audit)

_LENIENT_CEILING = 10**12 - 1

_GRAPHS = sorted({g for m in MORPHEMES for g in m.graphs})
_SPACE = [" ", "\t", "\n", "　"]
_FOREIGN = ["a", "犬", "0", "9", "\ud800", "\udfff", "́", "ｙ"]
_han = st.one_of(
    st.lists(st.sampled_from(_GRAPHS), min_size=1, max_size=10),
    st.lists(
        st.one_of(
            st.sampled_from(_GRAPHS),
            st.sampled_from(_SPACE + _FOREIGN),
            st.characters(),
        ),
        max_size=12,
    ),
).map("".join)

_TONED = [m.pinyin for m in MORPHEMES]
_SYLLABLES = sorted({
    *_TONED,
    *(s.upper() for s in _TONED),
    *(s.capitalize() for s in _TONED),
    "yi", "er", "liang", "san", "shi", "bai", "qian", "wan", "ling", "you",
    "dan", "YI", "Ling",
})
_pinyin = st.lists(
    st.one_of(st.sampled_from(_SYLLABLES), st.text(max_size=3)),
    max_size=8,
).map(" ".join)


@st.composite
def _rendered(draw):
    """An era's rendering in Han or pinyin, perhaps with a space put in."""
    era = draw(st.sampled_from(CHRONOLOGY))
    n = draw(st.integers(min_value=1, max_value=era_profile(era).max_value))
    script = draw(
        st.sampled_from([Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN])
    )
    text = render_integer(n, era).text(script)
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:cut] + draw(st.sampled_from(["", " ", "　"])) + text[cut:]


@settings(max_examples=500, deadline=None)
@given(
    text=st.one_of(_han, _pinyin, _rendered()),
    era=st.sampled_from([*CHRONOLOGY, None]),
    hint=st.sampled_from(list(ScriptHint)),
    toneless=st.booleans(),
)
def test_parse_text_fuzz(text, era, hint, toneless):
    try:
        outcome = parse_text(text, era, script_hint=hint, toneless=toneless)
    except NumeralParseError:
        return
    ceiling = era_profile(era).max_value if era is not None else _LENIENT_CEILING
    assert 0 <= outcome.value <= ceiling
    tokens = tokenize(text, hint, toneless=toneless)
    assert outcome.tokens == tokens
    if era is not None:
        assert classify(tokens).verdict_for(era).value == outcome.value


# ---------------------------------------------------------------------------
# Hostile input against the group memos
# ---------------------------------------------------------------------------

_parse = importlib.import_module("hannum.parse")
_generate = importlib.import_module("hannum.generate")
_NO_OUTER_PIVOT = [g for g in _GRAPHS if g not in "萬万億亿"]


def _live_tables():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, _parse._Lanes)]


def _stored():
    """The readings stored in all lane tables' memos."""
    return sum(len(lanes.memo) for lanes in _live_tables())


def _assert_memo_bounded():
    assert _stored() == _parse._STORED[0] <= _parse._GROUP_MEMO
    for lanes in _live_tables():
        for key in lanes.memo:
            # A later group's key starts with the outer pivot before it.
            group = len(key) - (len(key) > 1 and key[0] in (24, 28))
            assert group <= _parse._LONGEST_GROUP, key


def _read_everywhere(text):
    """parse_text under every grammar and classify: each returns or raises
    NumeralParseError."""
    for era in (*CHRONOLOGY, None):
        try:
            parse_text(text, era)
        except NumeralParseError:
            pass
    try:
        classify(text)
    except NumeralParseError:
        pass


@st.composite
def _run_together(draw):
    """Rendered numerals of every era run together, 10^3 to 10^5 characters."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    size = draw(st.sampled_from([10**3, 10**4, 10**5]))
    size = rng.randint(size, min(10 * size, 10**5))
    pieces, length = [], 0
    while length < size:
        era = rng.choice(CHRONOLOGY)
        piece = render_integer(rng.randint(1, era_profile(era).max_value), era).text()
        pieces.append(piece)
        length += len(piece)
    return "".join(pieces)[:size]


@settings(max_examples=12, deadline=None)
@given(text=_run_together())
def test_run_together_numerals_keep_memos_bounded(text):
    _read_everywhere(text)
    _assert_memo_bounded()


def test_long_input_without_outer_pivot():
    rng = random.Random(100_000)
    text = "".join(rng.choices(_NO_OUTER_PIVOT, k=100_000))
    before = _stored()
    _read_everywhere(text)
    # The whole input is one group, too long to be valid: never stored.
    assert _stored() == before
    _assert_memo_bounded()


def test_distinct_inputs_past_the_bound(monkeypatch):
    # The budget holds for all lane tables together, not for each.
    monkeypatch.setattr(_parse, "_GROUP_MEMO", 1_000)
    monkeypatch.setattr(_parse, "_STORED", [0])
    for lanes in _live_tables():
        monkeypatch.setattr(lanes, "memo", {})
    rng = random.Random(10_000)
    texts = set()
    while len(texts) < 10_000:
        texts.add("".join(rng.choices(_GRAPHS, k=rng.randint(1, 14))))
    for text in texts:
        _read_everywhere(text)
    assert _stored() == 1_000
    # Every table read shares the budget: the eras' (the three early eras
    # share one), the lenient grammar's and the all-era table of classify,
    # which has a lane for each of them.
    tables = {_parse._reader(era_profile(era))[0] for era in CHRONOLOGY}
    tables |= {_parse._table(None), _parse._ALL_LANES}
    assert len(tables) == 8
    assert _parse._ALL_LANES.all.bit_length() == 7
    assert {lanes for lanes in _live_tables() if lanes.memo} == tables
    _assert_memo_bounded()


def _one_profile_per_grammar():
    """A profile of each of the 208 era grammars, as scripts/lenient_audit.py
    builds them, each with a ceiling of its own."""
    rng = random.Random(208)
    return [
        replace(p, max_value=rng.randint(10**6, 10**12 - 1))
        for p in _lenient_audit.grammar_profiles()
    ]


def test_every_grammar_stays_within_the_memo_budget():
    profiles = _one_profile_per_grammar()
    assert len({_parse._grammar(p) for p in profiles}) == len(profiles) == 208
    rng = random.Random(64)
    for profile in profiles:
        for _ in range(20):
            n = rng.randint(1, 10**6)
            assert parse(render_integer(n, profile).tokens, profile).value == n
            try:
                parse(tuple(rng.choices(MORPHEMES, k=rng.randint(1, 14))), profile)
            except NumeralParseError:
                pass
    # One table per grammar and the lenient grammar, and the table of all
    # eras at once.
    assert len(_parse._TABLES) == 209
    assert len(_live_tables()) == 210
    _assert_memo_bounded()


def test_every_grammar_reads_back_what_it_renders(monkeypatch):
    # The grammar diagonal: under a profile of each grammar, every n up to
    # 10^3 renders and reads back as n, with liang as well where the
    # profile allows it. A render the profile refuses (only 0's, below
    # every ceiling) its reader refuses too.
    profiles = _one_profile_per_grammar()
    tables = {_parse._table(_parse._grammar(p)) for p in profiles}
    # Fresh memos, so that the sweep leaves the process's as it found them.
    monkeypatch.setattr(_parse, "_STORED", [0])
    for lanes in tables:
        monkeypatch.setattr(lanes, "memo", {})
    monkeypatch.setattr(_generate, "_group_memo", {})
    liang = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
    pairs = 0
    for profile in profiles:
        for opts in (DEFAULT_OPTIONS, liang)[:1 + profile.liang_allowed]:
            for n in range(10**3 + 1):
                try:
                    tokens = render_integer(n, profile, opts).tokens
                except ZeroInexpressible:
                    assert n == 0
                    with pytest.raises(NumeralParseError):
                        parse((LING,), profile)
                    continue
                assert parse(tokens, profile).value == n, (profile, opts, n)
                pairs += 1
    assert pairs > 300_000
