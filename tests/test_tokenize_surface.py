"""The morpheme <-> surface layer against its per-item references.

tokenize maps whole texts through lookup tables and reads item by item only
on a miss; NumeralExpression.text joins per-script tables. Both must agree
exactly with the per-character tokenizer in reference_tokenizer.py and with
a join of core.surface over the tokens.
"""

import importlib
import itertools
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from hannum import (
    Era,
    NonGenerableMorpheme,
    NumeralExpression,
    RenderOptions,
    Script,
    TwoStyle,
    era_profile,
    parse_text,
    render_integer,
)
from hannum.core import DAN, LING_ALT, MORPHEMES, digit, surface
from hannum.parse import (
    NumeralParseError,
    ParseErrorKind,
    ScriptHint,
    _tokenize_impl,
    tokenize,
)
from reference_tokenizer import reference_tokenize


def _result(tokenizer, text, hint, toneless):
    try:
        return tokenizer(text, hint, toneless)
    except NumeralParseError as exc:
        return exc.kind, exc.position, exc.message


def _assert_same(text, hint, toneless):
    got = _result(_tokenize_impl, text, hint, toneless)
    want = _result(reference_tokenize, text, hint, toneless)
    assert got == want, (text, hint, toneless)


_GRAPHS = sorted({g for m in MORPHEMES for g in m.graphs})
_SYLLABLES = sorted({m.pinyin for m in MORPHEMES})
_PINYIN_VARIANTS = sorted(
    {
        variant
        for s in _SYLLABLES
        for variant in (
            s,
            s[1:],
            s.upper(),
            s.capitalize(),
            unicodedata.normalize("NFD", s),
            unicodedata.normalize("NFD", s.upper()),
            "".join(
                ch for ch in unicodedata.normalize("NFD", s)
                if not unicodedata.combining(ch)
            ),
        )
    }
    | {"yi", "YI", "Yi", "ling", "LING", "yí", "xyz", "shi2"}
)
_SPACES = [" ", "  ", "\t", "\n", "\u3000", "\x1c", "\x85", "\u2009"]
_UNKNOWN = ["a", "山", "x", "é", "5", "人", "\ud800", "\u0304"]

_atoms = st.one_of(
    st.sampled_from(_GRAPHS),
    st.sampled_from(_PINYIN_VARIANTS),
    st.sampled_from(_SPACES),
    st.sampled_from(_UNKNOWN),
    st.text(max_size=2),
)
_texts = st.lists(_atoms, max_size=14).map("".join)
# Pinyin phrases: syllables separated by whitespace, so most tokenize.
_phrases = st.lists(
    st.tuples(st.sampled_from(_SPACES), st.sampled_from(_PINYIN_VARIANTS)),
    max_size=10,
).map(lambda parts: "".join(sep + syl for sep, syl in parts))
_hints = st.sampled_from(list(ScriptHint))


class TestTokenizeMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(_texts, _hints, st.booleans())
    def test_mixed_text(self, text, hint, toneless):
        _assert_same(text, hint, toneless)

    @settings(max_examples=400, deadline=None)
    @given(_phrases, _hints, st.booleans())
    def test_pinyin_phrases(self, text, hint, toneless):
        _assert_same(text, hint, toneless)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(Era)),
        st.integers(min_value=1, max_value=10**12 - 1),
        st.sampled_from([Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN]),
        _hints,
        st.booleans(),
    )
    def test_rendered_text(self, era, n, script, hint, toneless):
        n = min(n, era_profile(era).max_value)
        _assert_same(render_integer(n, era).text(script), hint, toneless)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "\u3000\n",
            "一百零五",
            " 一 百\t零\n五 ",
            "一百x五",
            "一 百 x",
            "x一",
            "一 bǎi",
            "yī bǎi 一",
            "yī bǎi",
            " yī  bǎi ",
            "YĪ BǍI",
            unicodedata.normalize("NFD", "yī bǎi líng wǔ"),
            "yi bai",
            "wu yi",
            "yi yi",
            "san yi san qian",
            "liang yi",
            "ling",
            "ling wu",
            "LING",
            "yī bǎi xyz",
            "yī\u3000bǎi\x1cxyz",
            "bǎi ǎi",
            "wàn qiān àn",
            "bǎi bǎi\nbǎi",
        ],
    )
    @pytest.mark.parametrize("hint", list(ScriptHint))
    @pytest.mark.parametrize("toneless", [False, True])
    def test_examples(self, text, hint, toneless):
        _assert_same(text, hint, toneless)


def _surface_join(tokens, script):
    pieces = [surface(m, script) for m in tokens]
    if script is Script.PINYIN:
        return " ".join(pieces)
    if script is Script.TOKENS:
        return " ".join(
            "".join(p if p.startswith("[") else f" {p} " for p in pieces).split()
        )
    return "".join(pieces)


_OPTIONS = [
    RenderOptions(),
    RenderOptions(two_style=TwoStyle.PREFER_LIANG),
    RenderOptions(use_you=True),
]


def _renders(n, era, options):
    """render_integer(n, era, options), or nothing where the era rejects it."""
    try:
        return [render_integer(n, era, options)]
    except ValueError:
        return []


class TestTextMatchesSurfaceJoin:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(Era)),
        st.integers(min_value=0, max_value=10**12 - 1),
        st.sampled_from(_OPTIONS),
    )
    def test_rendered_expressions(self, era, n, options):
        n = min(n, era_profile(era).max_value)
        for expr in _renders(n, era, options):
            for script in Script:
                assert expr.text(script) == _surface_join(expr.tokens, script)

    @pytest.mark.parametrize("gap_word", [DAN, LING_ALT])
    def test_parse_only_gap_word_error_unchanged(self, gap_word):
        expr = NumeralExpression((digit(1), gap_word, digit(5)), Era.SONG_QIN)
        for script in (Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN):
            with pytest.raises(NonGenerableMorpheme) as exc:
                expr.text(script)
            assert str(exc.value) == (
                f"{gap_word.notation} is recognized on input only and has no "
                f"generation surface"
            )
        assert expr.text(Script.TOKENS) == _surface_join(expr.tokens, Script.TOKENS)


# Pinyin renderings of every era under each option set of _OPTIONS: small
# values, gaps and both outer pivots.
_PINYIN_POOL = sorted(
    {
        expr.text(Script.PINYIN)
        for era in Era
        for options in _OPTIONS
        for n in (*range(0, 121), 1001, 10_005, 30_070, 115_000, 2_222_222,
                  10**8 + 1, 10**8 - 1, 10**12 - 1)
        if n <= era_profile(era).max_value
        for expr in _renders(n, era, options)
    }
)


class TestAutoOnPinyin:
    """AUTO reads pinyin unless some character is a Han numeral graph (or,
    see TestAutoOnIdeographs, the first character is a CJK ideograph)."""

    @pytest.mark.parametrize("toneless", [False, True])
    def test_pure_pinyin_reads_as_pinyin(self, toneless):
        for text in _PINYIN_POOL:
            auto = _tokenize_impl(text, ScriptHint.AUTO, toneless)
            assert auto == _tokenize_impl(text, ScriptHint.PINYIN, toneless), text
            assert auto[1] is True
            _assert_same(text, ScriptHint.AUTO, toneless)

    @pytest.mark.parametrize("graph", _GRAPHS)
    def test_one_han_graph_switches_to_han(self, graph):
        for k, text in enumerate(_PINYIN_POOL[::7]):
            at = k % (len(text) + 1)
            spliced = text[:at] + graph + text[at:]
            with pytest.raises(NumeralParseError) as info:
                _tokenize_impl(spliced, ScriptHint.AUTO, False)
            assert info.value.kind is ParseErrorKind.UNKNOWN_CHARACTER
            # The first character that is neither the graph nor a space.
            assert info.value.position == (1 if at == 0 else 0)
            for toneless in (False, True):
                _assert_same(spliced, ScriptHint.AUTO, toneless)


class TestAutoOnIdeographs:
    """AUTO reads a text with no graph as Han where its first character but
    whitespace is a CJK ideograph or 〇, so the error names that character."""

    @staticmethod
    def _error(text, hint=ScriptHint.AUTO):
        with pytest.raises(NumeralParseError) as info:
            parse_text(text, script_hint=hint)
        return info.value.kind, info.value.position, info.value.message

    @pytest.mark.parametrize(
        "text, char, at",
        [("卅", "卅", 0), ("廿", "廿", 0), ("卌", "卌", 0), ("〇", "〇", 0),
         ("壹佰伍拾", "壹", 0), (" 卅", "卅", 1), ("卅 yī", "卅", 0),
         ("　〇\t", "〇", 1), ("貓", "貓", 0), ("\U00020000", "\U00020000", 0),
         ("豈", "豈", 0), ("\U0002f800", "\U0002f800", 0)],
    )
    def test_names_the_character(self, text, char, at):
        message = f"character {char!r} is not in the numeral inventory"
        assert self._error(text) == (ParseErrorKind.UNKNOWN_CHARACTER, at, message)
        _assert_same(text, ScriptHint.AUTO, False)

    @pytest.mark.parametrize(
        "text, syllable, at",
        [("yī 卅", "卅", 3), ("\x00卅", "\x00卅", 0), ("。卅", "。卅", 0),
         ("⺀", "⺀", 0)],
    )
    def test_other_leads_stay_pinyin(self, text, syllable, at):
        # A later ideograph, or a lead that is no ideograph (NUL, a full
        # stop, a CJK radical), leaves the text to pinyin.
        message = f"syllable {syllable!r} is not a numeral morpheme"
        assert self._error(text) == (ParseErrorKind.UNKNOWN_CHARACTER, at, message)
        _assert_same(text, ScriptHint.AUTO, False)

    def test_pinyin_hint_keeps_the_syllable(self):
        assert self._error("卅", ScriptHint.PINYIN) == (
            ParseErrorKind.UNKNOWN_CHARACTER, 0,
            "syllable '卅' is not a numeral morpheme",
        )

    def test_pinyin_still_reads(self):
        assert parse_text("YĪ BǍI").value == 100
        assert parse_text("yī bǎi").value == 100

    def test_every_bmp_character_alone(self):
        # The predicate against the reference's own copy, character by
        # character, alone and after a space.
        for code in range(0x10000):
            ch = chr(code)
            for text in (ch, " " + ch):
                got = _result(_tokenize_impl, text, ScriptHint.AUTO, False)
                want = _result(reference_tokenize, text, ScriptHint.AUTO, False)
                assert got == want, hex(code)


P = importlib.import_module("hannum.parse")

# Characters outside the inventory that a table-driven tokenizer could
# mistake for graphs: U+FFFE marks the unused bytes of a decoding table, NUL
# is its byte 0, and a lone surrogate cannot be encoded at all.
_ODD = ["￾", "\x00", "\ud800", "a", "Z", "0", "7", "　", "\t"]
_NUMERALS = [
    render_integer(1_305_000_080).text(),
    render_integer(1_305_000_080).text(Script.SIMPLIFIED),
    render_integer(20_002, Era.CONTEMPORARY, _OPTIONS[1]).text(Script.SIMPLIFIED),
    render_integer(115, Era.ZHOU_BRONZE).text(),
    "一千單五",
    "三萬另又五",
    "十",
]


def _assert_codes(text, hint):
    """The fast path hands over the codes of the tuple it returns, and any
    equal tuple reads the same codes from the table."""
    tokens, _ = _tokenize_impl(text, hint, False)
    want = bytes([t.code for t in tokens])
    assert P._HANDOFF[0][0] is tokens, text
    assert P._codes(tokens) == want, text
    assert P._codes(tuple(list(tokens))) == want, text


class TestCharmapFastPath:
    """Han text of inventory graphs is tokenized through one charmap
    encoding and one itemgetter; it must agree with the per-character
    reference token for token and error for error."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_short_inventory_string(self, length):
        for chars in itertools.product(_GRAPHS, repeat=length):
            text = "".join(chars)
            for hint in (ScriptHint.AUTO, ScriptHint.HAN):
                _assert_same(text, hint, False)

    @pytest.mark.parametrize("hint", [ScriptHint.AUTO, ScriptHint.HAN])
    def test_empty_text(self, hint):
        _assert_same("", hint, False)

    @pytest.mark.parametrize("odd", _ODD)
    def test_odd_character_at_every_offset(self, odd):
        for numeral in _NUMERALS:
            for at in range(len(numeral) + 1):
                text = numeral[:at] + odd + numeral[at:]
                for hint in (ScriptHint.AUTO, ScriptHint.HAN):
                    _assert_same(text, hint, False)

    def test_codes_handed_to_parse(self):
        for text in (*_GRAPHS, *_NUMERALS):
            for hint in (ScriptHint.AUTO, ScriptHint.HAN):
                _assert_codes(text, hint)
        for a, b in itertools.product(_GRAPHS, repeat=2):
            _assert_codes(a + b, ScriptHint.HAN)


_SPACES_ODD = [c for c in _ODD if c.isspace()]


class TestHanReadOffTheBytes:
    """Han text with whitespace or a character outside the inventory is
    read off the same charmap bytes as text of graphs alone; it must agree
    with the per-character reference and hand its codes to parse."""

    @pytest.mark.parametrize("odd", _ODD)
    @pytest.mark.parametrize("space", _SPACES_ODD)
    def test_space_and_odd_at_every_pair_of_offsets(self, space, odd):
        for numeral in (_NUMERALS[1], _NUMERALS[5]):
            for at in range(len(numeral) + 1):
                spaced = numeral[:at] + space + numeral[at:]
                for k in range(len(spaced) + 1):
                    text = spaced[:k] + odd + spaced[k:]
                    for hint in (ScriptHint.AUTO, ScriptHint.HAN):
                        _assert_same(text, hint, False)

    @pytest.mark.parametrize(
        "text", [" ", "\t\n", "\u3000 \x85", "\x00", "\x00\x00", " \x00\t"]
    )
    @pytest.mark.parametrize("hint", [ScriptHint.AUTO, ScriptHint.HAN])
    def test_whitespace_and_nul_only(self, text, hint):
        _assert_same(text, hint, False)

    def test_codes_handed_to_parse(self):
        for numeral in _NUMERALS:
            for at in range(len(numeral) + 1):
                for k in range(at, len(numeral) + 1):
                    text = f"{numeral[:at]} {numeral[at:k]}\t{numeral[k:]}"
                    for hint in (ScriptHint.AUTO, ScriptHint.HAN):
                        _assert_codes(text, hint)


class TestSingleTokens:
    """itemgetter of one key gives the value, not a 1-tuple: a one-token
    expression must still read as its one written form."""

    @pytest.mark.parametrize(
        "m", [m for m in MORPHEMES if m.traditional is not None],
        ids=lambda m: m.notation,
    )
    def test_one_token_in_every_script(self, m):
        expr = NumeralExpression((m,), Era.CONTEMPORARY)
        assert expr.text(Script.TRADITIONAL) == m.traditional
        assert expr.text(Script.SIMPLIFIED) == m.simplified
        assert expr.text(Script.PINYIN) == m.pinyin
        assert expr.text(Script.TOKENS) == m.notation

    def test_rendered_single_tokens(self):
        assert render_integer(10).text(Script.PINYIN) == "shí"
        assert render_integer(0).text(Script.PINYIN) == "líng"
        assert render_integer(10_000, Era.SUANSHUSHU).text(Script.PINYIN) == "wàn"

    @pytest.mark.parametrize("script", list(Script))
    def test_no_tokens(self, script):
        assert NumeralExpression((), Era.CONTEMPORARY).text(script) == ""


_EXACT = sorted(P._PINYIN_SYLLABLES)


def _assert_pinyin(text):
    for hint in (ScriptHint.AUTO, ScriptHint.PINYIN):
        for toneless in (False, True):
            _assert_same(text, hint, toneless)


class TestPinyinFastPath:
    """Pinyin whose syllables are all exact table keys is read by one
    itemgetter and hands its codes to parse; any other pinyin is read
    syllable by syllable. Both must agree with the per-syllable reference
    under AUTO and PINYIN."""

    def test_each_syllable_alone_and_in_pairs(self):
        for a in _EXACT:
            _assert_pinyin(a)
            _assert_pinyin(f"　{a}\n")
            for b in _EXACT:
                _assert_pinyin(f"{a} {b}")
                _assert_pinyin(f" {a}\t\t{b} ")

    def test_codes_handed_to_parse(self):
        texts = [*_EXACT, *(f"{a} {b}" for a in _EXACT for b in _EXACT)]
        for text in texts:
            for hint in (ScriptHint.AUTO, ScriptHint.PINYIN):
                _assert_codes(text, hint)

    def test_upper_case_and_nfd(self):
        for s in _EXACT:
            for form in (s.upper(), s.capitalize(), unicodedata.normalize("NFD", s),
                         unicodedata.normalize("NFD", s.upper())):
                _assert_pinyin(form)
                _assert_pinyin(f"{form} {s}")
                _assert_pinyin(f"{s} {form}")

    @pytest.mark.parametrize(
        "text",
        ["yi", "ling", "bai", "yi yi", "wu yi", "san yi san qian", "liang yi",
         "yī bai", "er shi yī", "wàn ling wu", "ling wǔ"],
    )
    def test_toneless(self, text):
        _assert_pinyin(text)

    @pytest.mark.parametrize("unknown", ["xyz", "yí", "shi2", "一"])
    def test_unknown_syllable_at_each_position(self, unknown):
        base = ["yī", "bǎi", "líng", "wǔ", "yī"]
        for k in range(len(base) + 1):
            _assert_pinyin(" ".join([*base[:k], unknown, *base[k:]]))
            if k < len(base):
                _assert_pinyin(" ".join([*base[:k], unknown, *base[k + 1:]]))


class TestNonStrSequence:
    """A sequence of str that is not a str reads as the string of its items
    under AUTO and HAN."""

    @pytest.mark.parametrize(
        "text", ["一百零五", " 一 百\t零\n五 ", "一百x五", "x一", "十", "", "  "]
    )
    @pytest.mark.parametrize("hint", [ScriptHint.AUTO, ScriptHint.HAN])
    def test_reads_like_the_string(self, text, hint):
        want = _result(_tokenize_impl, text, hint, False)
        assert _result(_tokenize_impl, list(text), hint, False) == want
        assert _result(_tokenize_impl, tuple(text), hint, False) == want

    @pytest.mark.parametrize("hint", [ScriptHint.AUTO, ScriptHint.HAN])
    def test_whitespace_items_skipped(self, hint):
        assert tokenize(["一", " ", "\n\t", "", "十"], hint) == tokenize("一十")

    @pytest.mark.parametrize("hint", [ScriptHint.AUTO, ScriptHint.HAN])
    def test_non_graph_item_at_its_index(self, hint):
        for items, index in ((["一", "x"], 1), (["x", "一"], 0),
                             (["一", "十", "五六"], 2), (["一", " ", "yī"], 2)):
            with pytest.raises(NumeralParseError) as info:
                tokenize(items, hint)
            assert info.value.kind is ParseErrorKind.UNKNOWN_CHARACTER
            assert info.value.position == index
            assert info.value.message == (
                f"character {items[index]!r} is not in the numeral inventory"
            )

    @pytest.mark.parametrize("hint", list(ScriptHint))
    @pytest.mark.parametrize(
        "text", [["一", 5], ("一", None), [digit(1)], b"yi", 5, None]
    )
    def test_not_text_is_a_type_error(self, text, hint):
        with pytest.raises(TypeError, match="tokenize expects text as"):
            tokenize(text, hint)

    def test_pinyin_needs_a_str(self):
        with pytest.raises(TypeError, match="a str under ScriptHint.PINYIN, not list"):
            tokenize(["yī", "bǎi"], ScriptHint.PINYIN)
