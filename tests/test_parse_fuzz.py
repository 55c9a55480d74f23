"""parse_text on hostile input: only NumeralParseError escapes, whatever it
accepts lies within the grammar's ceiling and agrees with classify, and no
group memo grows past its bound or keeps a group longer than a valid one."""

import gc
import importlib
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from hannum import (
    CHRONOLOGY,
    NumeralParseError,
    Script,
    ScriptHint,
    classify,
    era_profile,
    parse,
    parse_text,
    render_integer,
    tokenize,
)
from hannum.core import MORPHEMES

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
_NO_OUTER_PIVOT = [g for g in _GRAPHS if g not in "萬万億亿"]


def _standard_tables():
    return [_parse._LENIENT_LANES, _parse._ALL_LANES, *_parse._ERA_LANES.values()]


def _live_tables():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, _parse._Lanes)]


def _assert_memos_bounded(tables):
    for lanes in tables:
        assert len(lanes.memo) <= _parse._GROUP_MEMO
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
    _assert_memos_bounded(_standard_tables())


def test_long_input_without_outer_pivot():
    rng = random.Random(100_000)
    text = "".join(rng.choices(_NO_OUTER_PIVOT, k=100_000))
    before = [len(lanes.memo) for lanes in _standard_tables()]
    _read_everywhere(text)
    # The whole input is one group, too long to be valid: never stored.
    assert [len(lanes.memo) for lanes in _standard_tables()] == before
    _assert_memos_bounded(_standard_tables())


def test_distinct_inputs_past_the_bound(monkeypatch):
    monkeypatch.setattr(_parse, "_GROUP_MEMO", 1_000)
    for lanes in _standard_tables():
        monkeypatch.setattr(lanes, "memo", {})
    rng = random.Random(10_000)
    texts = set()
    while len(texts) < 10_000:
        texts.add("".join(rng.choices(_GRAPHS, k=rng.randint(1, 14))))
    for text in texts:
        _read_everywhere(text)
    assert max(len(lanes.memo) for lanes in _standard_tables()) == 1_000
    _assert_memos_bounded(_standard_tables())


def test_many_custom_profiles_stay_within_the_table_cache():
    profiles = [
        replace(era_profile(CHRONOLOGY[k % 8]), max_value=10**8 - 1 - k)
        for k in range(100)
    ]
    assert len(set(profiles)) == 100
    rng = random.Random(64)
    for profile in profiles:
        for _ in range(20):
            toks = render_integer(rng.randint(1, 10**6), profile).tokens
            assert parse(toks, profile).value <= profile.max_value
            try:
                parse(tuple(rng.choices(MORPHEMES, k=rng.randint(1, 14))), profile)
            except NumeralParseError:
                pass
    standard = {id(lanes) for lanes in _standard_tables()}
    custom = [lanes for lanes in _live_tables() if id(lanes) not in standard]
    assert _parse._profile_lanes.cache_info().currsize <= 64
    assert len(custom) <= 64
    _assert_memos_bounded(custom)
