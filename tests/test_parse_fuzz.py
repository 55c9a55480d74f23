"""parse_text on hostile input: only NumeralParseError escapes, and whatever
it accepts lies within the grammar's ceiling and agrees with classify."""

from hypothesis import given, settings, strategies as st

from hannum import (
    CHRONOLOGY,
    NumeralParseError,
    Script,
    ScriptHint,
    classify,
    era_profile,
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
