"""Tokenizing surface text and parsing morpheme sequences per era grammar."""

import ast
import hashlib
import importlib
import inspect
import itertools
import json
from dataclasses import fields, replace
from enum import Enum
from types import SimpleNamespace

import pytest

import reference_walk

from hannum import (
    CHRONOLOGY,
    DAN,
    LIANG,
    LING,
    LING_ALT,
    YOU,
    Era,
    NumeralParseError,
    ParseErrorKind,
    RenderOptions,
    Script,
    ScriptHint,
    TwoStyle,
    classify,
    digit,
    feature_profile,
    parse,
    parse_text,
    pivot,
    render_integer,
    tokenize,
)
from hannum.core import (
    MORPHEMES,
    EraProfile,
    LeadingOnePolicy,
    LingPolicy,
    MorphemeKind,
    OneBeforeInnerMultiplicand,
    era_profile,
)
from hannum.parse import _grammar, _read_span

# The module, not the function that hannum exports by the same name.
parse_module = importlib.import_module("hannum.parse")


def err(callable_, *args, **kwargs):
    with pytest.raises(NumeralParseError) as info:
        callable_(*args, **kwargs)
    return info.value


def error_fields(exc):
    """All a caller sees of an error: type, fields, args, text and __dict__."""
    return (
        type(exc), exc.kind, exc.position, exc.message, exc.args, str(exc), vars(exc)
    )


class TestTokenize:
    def test_traditional(self):
        assert tokenize("一百零五") == (digit(1), pivot(2), LING, digit(5))
        assert tokenize("兩千") == (LIANG, pivot(3))
        assert tokenize("十有五") == (pivot(1), YOU, digit(5))

    def test_simplified(self):
        assert tokenize("两万五千") == (LIANG, pivot(4), digit(5), pivot(3))
        assert tokenize("一亿") == (digit(1), pivot(8))

    def test_gap_word_variants(self):
        assert tokenize("單") == (DAN,)
        assert tokenize("单") == (DAN,)
        assert tokenize("另") == (LING_ALT,)

    def test_again_variant_of_junction(self):
        assert tokenize("十又五") == (pivot(1), YOU, digit(5))

    def test_pinyin_tone_marked(self):
        assert tokenize("yī bǎi líng wǔ") == (digit(1), pivot(2), LING, digit(5))
        assert tokenize("liǎng qiān") == (LIANG, pivot(3))
        assert tokenize("shí yòu wǔ") == (pivot(1), YOU, digit(5))

    def test_pinyin_distinguishes_yi_by_tone(self):
        # First tone names the digit, fourth tone the 10^8 pivot.
        assert tokenize("yī") == (digit(1),)
        assert tokenize("yì") == (pivot(8),)
        assert tokenize("sān yì") == (digit(3), pivot(8))

    def test_pinyin_distinguishes_ling_by_tone(self):
        assert tokenize("líng") == (LING,)
        assert tokenize("lìng") == (LING_ALT,)

    def test_toneless_pinyin(self):
        toks = tokenize("yi bai ling wu", toneless=True)
        assert toks == (digit(1), pivot(2), LING, digit(5))

    def test_toneless_yi_positional(self):
        # Bare "yi" reads as the 10^8 pivot straight after a digit and as
        # the digit 1 anywhere else.
        assert tokenize("san yi", toneless=True) == (digit(3), pivot(8))
        assert tokenize("yi bai", toneless=True) == (digit(1), pivot(2))

    def test_unknown_character_position(self):
        e = err(tokenize, "三犬")
        assert e.kind is ParseErrorKind.UNKNOWN_CHARACTER
        assert e.position == 1
        assert "犬" in e.message

    def test_empty_input(self):
        e = err(tokenize, "")
        assert e.kind is ParseErrorKind.EMPTY_INPUT
        e = err(tokenize, "   ")
        assert e.kind is ParseErrorKind.EMPTY_INPUT

    @pytest.mark.parametrize(
        "call, message",
        [(parse, "no tokens to parse"), (classify, "no tokens to classify")],
        ids=["parse", "classify"],
    )
    def test_empty_token_sequence(self, call, message):
        e = err(call, ())
        assert (e.kind, e.position, e.message) == (
            ParseErrorKind.EMPTY_INPUT, 0, message
        )

    def test_script_hint_forced_han(self):
        e = err(tokenize, "yi", ScriptHint.HAN)
        assert e.kind is ParseErrorKind.UNKNOWN_CHARACTER

    @pytest.mark.parametrize("hint", ["han", "pinyin", None])
    @pytest.mark.parametrize(
        "call",
        [tokenize, lambda text, hint: parse_text(text, script_hint=hint)],
        ids=["tokenize", "parse_text"],
    )
    def test_script_hint_of_another_type_is_refused(self, call, hint):
        # Never read as pinyin: '一' is not a syllable.
        message = f"^script_hint must be a ScriptHint, not {type(hint).__name__}$"
        for text in ("一", "yī"):
            with pytest.raises(TypeError, match=message):
                call(text, hint)
        assert tokenize("yī", ScriptHint.PINYIN) == (digit(1),)
        assert parse_text("yī", script_hint=ScriptHint.PINYIN).value == 1


    @pytest.mark.parametrize("bad", ["no", 0, 1, None], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda text, bad: tokenize(text, toneless=bad),
            lambda text, bad: parse_text(text, toneless=bad),
        ],
        ids=["tokenize", "parse_text"],
    )
    def test_toneless_of_another_type_is_refused(self, call, bad):
        # Read by truthiness, 'no' would read "yi bai" as 100. The check
        # comes before the script_hint's and the text's.
        message = f"^toneless must be a bool, not {type(bad).__name__}$"
        for text in ("yi bai", "一百", "xyz", 5):
            with pytest.raises(TypeError, match=message):
                call(text, bad)
        with pytest.raises(TypeError, match=message):
            tokenize("yi", "pinyin", toneless=bad)


class TestParseValues:
    def test_contemporary_round_values(self):
        assert parse_text("零").value == 0
        assert parse_text("十").value == 10
        assert parse_text("十四").value == 14
        assert parse_text("一百零五").value == 105
        assert parse_text("一千零一").value == 1001
        assert parse_text("十三億零五百萬零八十").value == 1_305_000_080

    def test_suanshushu_juxtaposition(self):
        assert parse_text("二百一十", "suanshushu").value == 210
        assert parse_text("二千一十六", "suanshushu").value == 2016
        assert parse_text("百五十", "suanshushu").value == 150
        assert parse_text("千八十九", "suanshushu").value == 1089
        assert parse_text("萬一千五百二十", "suanshushu").value == 11520
        assert parse_text("五萬三", "suanshushu").value == 50003

    def test_early_you_forms(self):
        assert parse_text("十有五", "zhou-bronze").value == 15
        assert parse_text("百有五", "zhou-bronze").value == 105
        assert parse_text("六百有五十有九", "shang-oracle").value == 659

    def test_dunhuang_sole_multiplicand(self):
        # A bare inner pivot may multiply an outer pivot in this grammar.
        assert parse_text("千萬", "dunhuang").value == 10**7

    def test_parse_outcome_fields(self):
        outcome = parse_text("一百零五", "contemporary")
        assert outcome.value == 105
        assert outcome.era_checked is Era.CONTEMPORARY
        assert outcome.features.uses_ling is True
        assert outcome.features.uses_you is False
        assert outcome.tokens == (digit(1), pivot(2), LING, digit(5))

    def test_lenient_era_none(self):
        # A trailing bare digit is genuinely ambiguous across eras; the
        # lenient reading resolves it the contemporary way and says so.
        outcome = parse_text("百五", None)
        assert outcome.value == 150
        assert outcome.era_checked is None
        assert any("elliptic" in d for d in outcome.diagnostics)

    def test_parse_accepts_expression_object(self):
        rendered = render_integer(42)
        assert parse(rendered).value == 42

    def test_parse_rejects_non_morphemes(self):
        with pytest.raises(TypeError):
            parse(["十", "五"])

    @pytest.mark.parametrize(
        "tokens",
        [[1, 2], ["一"], [[]], [LING, object()], [5], (LING, 1)],
        ids=["ints", "graph", "unhashable", "object", "one-int", "morpheme-int"],
    )
    def test_non_morpheme_message(self, tokens):
        # Codes are read through a table of morphemes, and what misses it
        # raises this.
        with pytest.raises(TypeError, match="^parse expects a sequence of "
                           "numeral Morphemes$"):
            parse(tokens)

    @pytest.mark.parametrize("code", [5, 300])
    @pytest.mark.parametrize("before", [(), (digit(1),)], ids=["alone", "second"])
    def test_code_attribute_is_no_morpheme(self, code, before):
        # The morpheme table is the only source of codes: an object that
        # merely has a code attribute is neither read as that code nor
        # turned into a bare ValueError by a code above 255. classify and
        # feature_profile name their own argument.
        tokens = [*before, SimpleNamespace(code=code)]
        with pytest.raises(TypeError, match="^parse expects a sequence of "
                           "numeral Morphemes$"):
            parse(tokens)
        for read in (classify, feature_profile):
            with pytest.raises(TypeError, match="^source must be text, .* not a "
                               "sequence holding SimpleNamespace$"):
                read(tokens)

    def test_single_tokens(self):
        assert parse((LING,)).value == 0
        assert parse((pivot(1),), Era.CONTEMPORARY).value == 10
        outcome = parse_text("十", Era.CONTEMPORARY)
        assert (outcome.value, outcome.tokens) == (10, (pivot(1),))
        assert parse_text("十").value == 10
        assert parse_text("shí", Era.CONTEMPORARY).value == 10


class TestEraRejections:
    def test_ling_out_of_era(self):
        e = err(parse_text, "一百零五", "nine-chapters")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME
        assert e.position == 2

    def test_you_out_of_era(self):
        e = err(parse_text, "一十有五", "nine-chapters")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME
        assert e.position == 2
        assert "yòu" in e.message

    def test_bare_head_ten_rejected_first(self):
        # With the junction word later in the string, the bare opening ten
        # is already the first offense in this era.
        e = err(parse_text, "十有五", "nine-chapters")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION
        assert e.position == 0

    def test_liang_out_of_era(self):
        e = err(parse_text, "兩千", "song-qin")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME
        assert e.position == 0

    def test_missing_ling_where_required(self):
        e = err(parse_text, "一千八十九", "contemporary")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION

    @pytest.mark.parametrize("text", ["一萬五十", "一億三十萬五"])
    def test_missing_cross_group_ling_points_at_group_start(self, text):
        # The rank gap after an outer pivot is blamed on the first token of
        # the next group, not on the pivot that closes it.
        e = err(parse_text, text, "contemporary")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION
        assert e.position == 2

    def test_missing_one_where_required(self):
        e = err(parse_text, "百五", "contemporary")
        assert e.position == 0
        e = err(parse_text, "千八十九", "contemporary")
        assert e.position == 0

    @pytest.mark.parametrize(
        "text, era, kind, position",
        [
            ("百五五", "dunhuang", "DigitRunWithoutPivot", 2),
            ("一百五五", "suanshushu", "DigitRunWithoutPivot", 3),
            ("百五五", "contemporary", "RankOrderViolation", 0),
        ],
    )
    def test_first_term_one_rule_waits_for_group_close(self, text, era, kind, position):
        # Where a bare sole multiplier may stand, the first term's [1] rule
        # is read when the group closes, after the group's other checks.
        e = err(parse_text, text, era)
        assert (e.kind.value, e.position) == (kind, position)

    def test_early_eras_accept_both_leading_one_shapes(self):
        # The old scripts leave the leading one unknowable, so both shapes
        # parse; generation still omits it.
        assert parse_text("一百五", "shang-oracle").value == 105
        assert parse_text("百五", "shang-oracle").value == 105

    def test_suanshushu_rejects_explicit_leading_one(self):
        e = err(parse_text, "一百五", "suanshushu")
        assert e.position == 0

    def test_contemporary_accepts_optional_one_before_leading_ten(self):
        assert parse_text("十五", "contemporary").value == 15
        assert parse_text("一十五", "contemporary").value == 15

    def test_nine_chapters_requires_one_before_ten(self):
        assert parse_text("一十五", "nine-chapters").value == 15
        e = err(parse_text, "十五", "nine-chapters")
        assert e.position == 0

    def test_standalone_zero_per_era(self):
        assert parse_text("零", "contemporary").value == 0
        e = err(parse_text, "零", "song-qin")
        assert e.kind is ParseErrorKind.MISPLACED_LING
        e = err(parse_text, "零", "shang-oracle")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME

    def test_trailing_bare_digit_reading_per_era(self):
        # Ling eras resolve a trailing bare digit as an elliptic rank, since
        # their unit reading would demand the link word; ling-free eras read
        # it as the unit digit.
        assert parse_text("一百五", "contemporary").value == 150
        assert parse_text("一百五", "song-qin").value == 150
        assert parse_text("一百五", "nine-chapters").value == 105
        assert parse_text("百五", "shang-oracle").value == 105

    def test_overflow_per_era(self):
        e = err(parse_text, "一千億", "nine-chapters")
        assert e.kind is ParseErrorKind.OVERFLOW
        assert parse_text("一千億", "contemporary").value == 10**11


class TestStructuralRejections:
    def test_digit_run(self):
        e = err(parse_text, "三五", "contemporary")
        assert e.kind is ParseErrorKind.DIGIT_RUN_WITHOUT_PIVOT
        assert e.position == 1

    def test_rank_order(self):
        e = err(parse_text, "十百")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION

    def test_double_pivot(self):
        e = err(parse_text, "百百")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION

    def test_liang_before_ten(self):
        e = err(parse_text, "兩十")
        assert e.kind is ParseErrorKind.LIANG_BEFORE_SHI
        assert e.position == 0

    def test_liang_in_unit_slot(self):
        e = err(parse_text, "二十兩")
        assert e.kind is ParseErrorKind.LIANG_IN_UNIT_SLOT
        assert e.position == 2

    def test_misplaced_ling(self):
        e = err(parse_text, "零五十")
        assert e.kind is ParseErrorKind.MISPLACED_LING
        e = err(parse_text, "一百零零五")
        assert e.kind is ParseErrorKind.MISPLACED_LING

    def test_trailing_ling(self):
        e = err(parse_text, "一百零")
        assert e.kind is ParseErrorKind.MISPLACED_LING

    def test_misplaced_you(self):
        e = err(parse_text, "有五", "zhou-bronze")
        assert e.kind is ParseErrorKind.MISPLACED_YOU
        e = err(parse_text, "十有有五", "zhou-bronze")
        assert e.kind is ParseErrorKind.MISPLACED_YOU

    def test_ambiguous_elliptic(self):
        # 一萬五 could stop at thousands only; the lenient reading resolves
        # to the rank right below, flagged with a diagnostic.
        outcome = parse_text("一萬五", None)
        assert outcome.value == 15000
        assert any("elliptic" in d for d in outcome.diagnostics)
        outcome = parse_text("一億五", None)
        assert outcome.value == 150_000_000


class TestDanAndLingAlt:
    def test_song_qin_gap_words(self):
        outcome = parse_text("一百單五", "song-qin")
        assert outcome.value == 105
        assert any("read as líng" in d for d in outcome.diagnostics)
        assert parse_text("一百另五", "song-qin").value == 105

    def test_rejected_elsewhere(self):
        e = err(parse_text, "一百單五", "contemporary")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME
        e = err(parse_text, "一百單五", "nine-chapters")
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME

    def test_lenient_accepts_gap_words(self):
        assert parse_text("一百單五", None).value == 105


class TestLenientMode:
    def test_mixed_era_features_accepted(self):
        # yòu plus explicit ones never co-occur in one era, but the lenient
        # reading still recovers a value.
        assert parse_text("一百有五", None).value == 105

    def test_zhejiang_outer_ling_drop(self):
        outcome = parse_text("十三億五百萬零八十", None)
        assert outcome.value == 1_305_000_080
        assert any("líng missing" in d for d in outcome.diagnostics)

    def test_zhejiang_strict_rejection(self):
        e = err(parse_text, "十三億五百萬零八十", "contemporary")
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION

    def test_lenient_still_rejects_structure(self):
        e = err(parse_text, "三五", None)
        assert e.kind is ParseErrorKind.DIGIT_RUN_WITHOUT_PIVOT
        e = err(parse_text, "十百", None)
        assert e.kind is ParseErrorKind.RANK_ORDER_VIOLATION

    def test_lenient_ceiling_reachable(self):
        # The largest expressible value is exactly the lenient ceiling.
        top = parse_text("九千九百九十九億九千九百九十九萬九千九百九十九", None)
        assert top.value == 10**12 - 1

    def test_toneless_note(self):
        outcome = parse_text("yi bai ling wu", None, toneless=True)
        assert outcome.value == 105
        assert any("toneless" in d for d in outcome.diagnostics)


class TestCustomProfile:
    def test_own_ceiling_and_name(self):
        # A profile that is not one of the eight reads as its own lane.
        tight = replace(era_profile(Era.CONTEMPORARY), max_value=999)
        assert parse((digit(9), pivot(2)), tight).value == 900
        e = err(parse, (digit(1), pivot(3)), tight)
        assert e.kind is ParseErrorKind.OVERFLOW
        assert e.message == "value exceeds the contemporary ceiling of 999"

    def test_own_policies(self):
        no_ling = replace(
            era_profile(Era.CONTEMPORARY), ling_policy=LingPolicy.FORBIDDEN
        )
        e = err(parse, (digit(1), pivot(2), LING, digit(5)), no_ling)
        assert e.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME
        # Without required líng the trailing digit is the unit, not elliptic.
        assert parse((digit(1), pivot(2), digit(5)), no_ling).value == 105


class _Held(tuple):
    """A tuple subclass, which parse reads through its tokens attribute."""


class TestParseEntry:
    """parse takes an exact tuple as is and reads any other tokens through
    their tokens attribute, or as an iterable; it takes an Era at once,
    then reads None and "lenient" (any case and padding) as the lenient
    grammar, a str as a loose era name and anything else as a profile.
    The tokens are checked first, then the era, then emptiness."""

    TOKS = (digit(1), pivot(2), LING, digit(5))  # 105 from song-qin on

    @pytest.mark.parametrize(
        "make",
        [tuple, list, iter, lambda t: (m for m in t), lambda t: render_integer(105)],
        ids=["tuple", "list", "iterator", "generator", "expression"],
    )
    def test_token_sequences(self, make):
        out = parse(make(self.TOKS), Era.CONTEMPORARY)
        assert out.value == 105
        assert out.tokens == self.TOKS and out.tokens.__class__ is tuple

    def test_exact_tuple_and_expression_tokens_kept(self):
        toks = tuple(self.TOKS)
        assert parse(toks, Era.CONTEMPORARY).tokens is toks
        expr = render_integer(105)
        assert parse(expr, Era.CONTEMPORARY).tokens is expr.tokens

    def test_tuple_subclass_reads_its_tokens_attribute(self):
        held = _Held((digit(3), digit(3)))  # a digit run, were it read
        held.tokens = self.TOKS
        out = parse(held, Era.CONTEMPORARY)
        assert out.value == 105 and out.tokens == self.TOKS
        # Without the attribute it is read as the tuple it is.
        e = err(parse, _Held((digit(3), digit(3))), Era.CONTEMPORARY)
        assert e.kind is ParseErrorKind.DIGIT_RUN_WITHOUT_PIVOT

    @pytest.mark.parametrize("tokens", [5, None, 2.5])
    def test_not_iterable(self, tokens):
        got = type(tokens).__name__
        want = f"parse expects a sequence of numeral Morphemes, not {got}"
        for era in (None, Era.CONTEMPORARY, 2.5):
            with pytest.raises(TypeError) as info:
                parse(tokens, era)
            assert str(info.value) == want

    @pytest.mark.parametrize(
        "era, checked",
        [
            (None, None),
            ("lenient", None),
            (" Lenient ", None),
            ("LENIENT", None),
            (Era.SONG_QIN, Era.SONG_QIN),
            ("Song Qin", Era.SONG_QIN),
            ("song_qin", Era.SONG_QIN),
            (" contemporary ", Era.CONTEMPORARY),
            (era_profile(Era.SONG_QIN), Era.SONG_QIN),
            (replace(era_profile(Era.CONTEMPORARY), max_value=999), Era.CONTEMPORARY),
        ],
    )
    def test_eras(self, era, checked):
        out = parse(self.TOKS, era)
        assert (out.value, out.era_checked) == (105, checked)

    def test_loose_name_rejects_with_its_eras_message(self):
        e = err(parse, self.TOKS, "Shang Oracle")
        assert (e.kind, e.position, e.message) == (
            ParseErrorKind.OUT_OF_ERA_MORPHEME,
            2,
            "líng does not occur in shang-oracle numerals",
        )

    @pytest.mark.parametrize("era", [2.5, [1], b"lenient"])
    def test_era_of_another_type(self, era):
        with pytest.raises(TypeError) as info:
            parse(self.TOKS, era)
        assert str(info.value) == (
            "expected an Era, an EraProfile or an era name, "
            f"not {type(era).__name__}"
        )

    @pytest.mark.parametrize("era", ["ming", ""])
    def test_unknown_era_name_before_empty_tokens(self, era):
        want = f"^unknown era {era!r}; expected one of: "
        with pytest.raises(ValueError, match=want):
            parse((), era)
        e = err(parse, (), None)
        assert (e.kind, e.position) == (ParseErrorKind.EMPTY_INPUT, 0)

    @pytest.mark.parametrize("era", CHRONOLOGY, ids=lambda e: e.value)
    def test_own_profile_and_names_read_through_the_eras_reader(self, monkeypatch, era):
        # Only a custom profile builds a reader: the era's own profile and
        # each of its names read through the era's, with the outcome or
        # error the Era gives; an equal copy builds one and reads the same.
        P = importlib.import_module("hannum.parse")
        core = importlib.import_module("hannum.core")

        def reading(era, toks):
            try:
                return parse(toks, era)
            except NumeralParseError as exc:
                return error_fields(exc)

        def no_reader(p):
            raise AssertionError(f"parse built a reader for {p!r}")

        rendered = [render_integer(n, era).tokens for n in (15, 105, 2_222, 30_405)]
        seqs = [toks for toks in SHORT_SEQUENCES if len(toks) < 3] + rendered
        expected = [reading(era, toks) for toks in seqs]
        names = [era.value, era.value.upper(), f" {era.value.replace('-', '_')} "]
        names += [key for key, e in core._ERA_ALIASES.items() if e is era]
        monkeypatch.setattr(P, "_reader", no_reader)
        for alias in (era_profile(era), *names):
            assert [reading(alias, toks) for toks in seqs] == expected, alias
        monkeypatch.undo()
        twin = replace(era_profile(era))
        assert twin == era_profile(era) and twin is not era_profile(era)
        assert [reading(twin, toks) for toks in seqs] == expected


class TestRoundTripSpot:
    @pytest.mark.parametrize("era", [e for e in Era])
    def test_spot_values(self, era):
        profile_values = (1, 7, 10, 15, 99, 105, 150, 659, 1089, 11520, 99999)
        for n in profile_values:
            rendered = render_integer(n, era)
            assert parse(rendered.tokens, era).value == n

    def test_liang_round_trip(self):
        opts = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        for n in (2222, 22000, 250, 2_000_000):
            rendered = render_integer(n, Era.CONTEMPORARY, opts)
            assert parse(rendered.tokens, Era.CONTEMPORARY).value == n

    def test_pinyin_round_trip(self):
        for n in (105, 1050, 115000, 1_305_000_080):
            surface = render_integer(n).text(Script.PINYIN)
            assert parse_text(surface, "contemporary").value == n


# Every token sequence of length 1 to 3 over the 19 morphemes: 7,239 of them.
SHORT_SEQUENCES = [
    toks
    for n in (1, 2, 3)
    for toks in itertools.product(MORPHEMES, repeat=n)
]


def _listing(grammars, read=parse):
    """The sha256 of one line per sequence of SHORT_SEQUENCES and grammar:
    the value, feature bits and diagnostics read returns, or its error."""
    lines = []
    for toks in SHORT_SEQUENCES:
        for grammar in grammars:
            try:
                out = read(toks, grammar)
            except NumeralParseError as exc:
                lines.append(f"{exc.kind.value} {exc.position} {exc.message}")
            else:
                feats = "".join(
                    "1" if flag else "0" for flag in out.features.as_dict().values()
                )
                lines.append(f"{out.value} {feats} {' | '.join(out.diagnostics)}")
    assert len(lines) == 7239 * len(grammars)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Contemporary under each pairing of the two [1] policies; the standard eras
# never pair, for example, a bare sole multiplier with [1] before every pivot.
ONE_POLICY_PROFILES = [
    replace(
        era_profile(Era.CONTEMPORARY),
        leading_one_policy=lead,
        inner_multiplicand_one=inner,
    )
    for lead in LeadingOnePolicy
    for inner in OneBeforeInnerMultiplicand
]


class TestShortSequences:
    """Exhaustive pins over SHORT_SEQUENCES under all nine grammars."""

    # sha256 of the listing below, taken from the per-era parser that the
    # one-walk parser replaced.
    GOLDEN = "faa069c890abd3dc58adc0b95a274f16dbd672a2ceb9fa4d0855c2bf85c0f73a"
    # sha256 of the listing under ONE_POLICY_PROFILES, taken before the [1]
    # rule became one table.
    ONE_POLICY_GOLDEN = "507efe781c870ab2f25657453bc9c353ca5ac2d0f861a5ab009a6505f4f67af6"

    def test_golden_listing(self):
        assert _listing((*CHRONOLOGY, None)) == self.GOLDEN

    def test_one_policy_listing(self):
        assert _listing(ONE_POLICY_PROFILES) == self.ONE_POLICY_GOLDEN

    def test_classify_lanes_match_single_era_parses(self):
        # classify reads all eras in one walk; each era's verdict must be
        # exactly what that era's own parse returns or raises.
        for toks in SHORT_SEQUENCES:
            report = classify(toks)
            for era in CHRONOLOGY:
                verdict = report.verdict_for(era)
                try:
                    value = parse(toks, era).value
                except NumeralParseError as exc:
                    assert verdict.value is None, (toks, era)
                    got = error_fields(verdict.error)
                    assert got == error_fields(exc), (toks, era)
                else:
                    assert verdict.value == value, (toks, era)

    def test_read_span_matches_parse_and_classify(self):
        # scan reads each span in one walk; its lenient reading must be what
        # parse(toks, None) returns or raises, and its eras and features what
        # classify reports.
        assert len(SHORT_SEQUENCES) == 7239
        for toks in SHORT_SEQUENCES:
            outcome, failure, consistent, features = _read_span(toks)
            try:
                expected = parse(toks, None)
            except NumeralParseError as exc:
                assert outcome is None, toks
                assert failure == (exc.kind, exc.position, exc.message), toks
            else:
                assert failure is None, toks
                assert outcome == expected, toks
            report = classify(toks)
            assert consistent == report.consistent, toks
            assert features == report.features, toks

    def test_read_span_builds_no_error(self, monkeypatch):
        # A rejected span's failure is read off the walk, so _read_span
        # builds no NumeralParseError; parse of the same tokens builds one.
        built = []
        original = parse_module._error

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(parse_module, "_error", counted)
        toks = (LIANG, pivot(1))
        outcome, failure, _, _ = _read_span(toks)
        assert outcome is None and built == []
        exc = err(parse, toks, None)
        assert built == [failure] == [(exc.kind, exc.position, exc.message)]
        assert failure[:2] == (ParseErrorKind.LIANG_BEFORE_SHI, 0)


def _standard_tables(P):
    """The message tables of the nine standard readers, by reader name."""
    tables = {messages.name: messages for _, _, _, messages in P._ERA_READERS.values()}
    tables[P._LENIENT_MESSAGES.name] = P._LENIENT_MESSAGES
    return tables


def test_message_memo_keeps_standard_readers_only():
    # Each of the eight eras and the lenient grammar keeps its formatted
    # messages in a table of its own, keyed by template alone, so a table
    # holds at most one entry per template; a custom reader gets a new
    # table on every call, so a custom ceiling, which every Overflow
    # message shows, is never kept.
    P = importlib.import_module("hannum.parse")
    tables = _standard_tables(P)
    assert len(tables) == 9
    assert [messages for _, _, messages in P._FAN_OUT] == [
        P._ERA_READERS[era][3] for era in CHRONOLOGY
    ]
    custom = replace(era_profile(Era.CONTEMPORARY), max_value=12_345)
    assert P._reader(custom)[3] is not P._reader(custom)[3]
    overflows = 0
    for toks in SHORT_SEQUENCES:
        classify(toks)
        _read_span(toks)
        try:
            parse(toks, custom)
        except NumeralParseError as exc:
            if exc.kind is ParseErrorKind.OVERFLOW:
                overflows += 1
                assert exc.message.endswith("ceiling of 12345"), toks
    assert overflows
    sizes = {name: len(messages) for name, messages in tables.items()}
    assert all(sizes.values())
    for messages in tables.values():
        assert messages.ceiling != 12_345
        for template, text in messages.items():
            assert text == template.format(era=messages.name, ceiling=messages.ceiling)
            assert "12345" not in text
    for toks in SHORT_SEQUENCES:
        classify(toks)
        _read_span(toks)
    assert {name: len(messages) for name, messages in tables.items()} == sizes


def test_parse_under_one_era_fills_only_its_table():
    P = importlib.import_module("hannum.parse")
    tables = _standard_tables(P)
    for messages in tables.values():
        messages.clear()
    toks = (pivot(1), pivot(1), digit(5))
    # A custom profile keeps nothing; an era named by a loose name reads
    # through that era's table.
    err(parse, toks, replace(era_profile(Era.DUNHUANG), max_value=12_345))
    assert not any(tables.values())
    for era in (Era.DUNHUANG, "Dunhuang "):
        exc = err(parse, toks, era)
        assert {name: dict(m) for name, m in tables.items() if m} == {
            "dunhuang": {"pivot ranks must descend within a myriad group": exc.message}
        }


def _other(value):
    """A value of the same field that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    return value // 10  # a ceiling


@pytest.mark.parametrize("era", CHRONOLOGY)
def test_grammar_key_keeps_every_field_the_walk_reads(era):
    # A profile that changes one field of a standard era either gets a
    # grammar of its own, or shares the era's lane table; then it must read
    # every short sequence as a table built from it alone would. The
    # reference walk builds a table per profile. elliptic_allowed is read
    # by neither.
    base = era_profile(era)
    shared = 0
    for field in fields(EraProfile):
        changed = replace(base, **{field.name: _other(getattr(base, field.name))})
        if _grammar(changed) == _grammar(base):
            shared += 1
            assert _listing([changed]) == _listing(
                [changed], reference_walk.parse
            ), field.name
    assert shared >= 2  # the ceiling and elliptic_allowed at least


class TestLinkWords:
    """_group reads every link word, the gap words and yòu, in one step,
    which takes the word's failure kind and its three placement messages
    from the word's entry in _LINKS."""

    def test_entries_cover_the_link_morphemes(self):
        links = {MorphemeKind.LING, MorphemeKind.YOU, MorphemeKind.DAN,
                 MorphemeKind.LING_ALT}
        assert set(parse_module._LINKS) == {m.code for m in MORPHEMES if m.kind in links}
        for code, (kind, *messages) in parse_module._LINKS.items():
            you = code == YOU.code
            assert kind is (ParseErrorKind.MISPLACED_YOU if you else ParseErrorKind.MISPLACED_LING)
            assert len(messages) == len(set(messages)) == 3

    @pytest.mark.parametrize("word", [LING, YOU, DAN, LING_ALT], ids=lambda m: m.notation)
    def test_each_placement_rule(self, word):
        kind, before_closer, not_after_pivot, last = parse_module._LINKS[word.code]
        g = word.graphs[0]
        for text, position, message in [
            (f"百{g}萬", 1, before_closer),
            (f"{g}五", 0, not_after_pivot),
            (f"十{g}", 1, last),
        ]:
            e = err(parse_text, text, None)
            assert (e.kind, e.position, e.message) == (kind, position, message), text

    def test_group_appends_each_placement_failure_at_one_site(self):
        tree = ast.parse(inspect.getsource(parse_module._group))
        appends = [
            node.args[0].elts for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append" and getattr(node.func.value, "id", "") == "fails"
        ]
        # Every failure names its kind as _K.<member> but one, whose kind
        # is unpacked from the word's entry.
        from_entry = [
            elts for elts in appends
            if not (isinstance(elts[1], ast.Attribute) and elts[1].value.id == "_K")
        ]
        assert len(from_entry) == 1
        (site,) = from_entry
        unpacked = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
            and getattr(node.value.value, "id", "") == "_LINKS"
        ]
        assert len(unpacked) == 1
        names = [t.id for t in unpacked[0].targets[0].elts]
        assert site[1].id == names[0] and site[3].id == "message"
        # MisplacedYou has no site of its own, and no placement message is
        # written in _group.
        assert "MISPLACED_YOU" not in {
            elts[1].attr for elts in appends if elts is not site
        }
        written = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        placement = {text for _, *texts in parse_module._LINKS.values() for text in texts}
        assert not written & placement


class TestLiangRules:
    """_group reads where liang may stand as two rules, each checked at one
    site with its messages from _LIANG_RULES: liang never multiplies ten,
    and never fills a unit slot."""

    @pytest.mark.parametrize("text, kind, position, rule", [
        ("兩十", ParseErrorKind.LIANG_BEFORE_SHI, 0, 1),
        ("一百兩", ParseErrorKind.LIANG_BEFORE_SHI, 2, 0),
        # Never on ten comes before the adjacent-líng check.
        ("一百零兩十", ParseErrorKind.LIANG_BEFORE_SHI, 3, 1),
        ("十兩", ParseErrorKind.LIANG_IN_UNIT_SLOT, 1, 2),
        ("一萬零兩", ParseErrorKind.LIANG_IN_UNIT_SLOT, 3, 3),
        ("兩零五", ParseErrorKind.LIANG_IN_UNIT_SLOT, 0, 4),
        # Never in a unit slot comes after the adjacent-líng check.
        ("十零兩", ParseErrorKind.MISPLACED_LING, 1, None),
    ])
    def test_each_rule(self, text, kind, position, rule):
        for era in (Era.CONTEMPORARY, None):
            e = err(parse_text, text, era)
            assert (e.kind, e.position) == (kind, position), (text, era)
            if rule is not None:
                assert e.message == parse_module._LIANG_RULES[rule]

    @pytest.mark.parametrize("text, value", [
        ("兩", 2), ("兩萬", 20_000), ("一億零兩萬", 100_020_000),
        ("一千兩", 1_200), ("一萬兩", 12_000), ("兩千兩百", 2_200),
    ])
    def test_liang_where_it_may_stand(self, text, value):
        assert parse_text(text, Era.CONTEMPORARY).value == value

    def test_group_appends_each_liang_failure_at_one_site(self):
        tree = ast.parse(inspect.getsource(parse_module._group))
        appends = [
            node.args[0].elts for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append" and getattr(node.func.value, "id", "") == "fails"
        ]
        kinds = ("LIANG_BEFORE_SHI", "LIANG_IN_UNIT_SLOT")
        named = [
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in kinds
        ]
        assert sorted(named) == sorted(kinds)
        sites = [
            elts for elts in appends
            if isinstance(elts[1], ast.Attribute) and elts[1].attr in kinds
        ]
        assert len(sites) == 2
        for elts in sites:
            message = elts[3]
            assert isinstance(message, ast.Subscript)
            assert message.value.id == "_LIANG_RULES"
        # No liang message is written in _group.
        written = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        assert not [text for text in written if "liang" in text]
        assert len(set(parse_module._LIANG_RULES)) == 5

# sha256 of test_length_four_listing's listing, taken before the walk folded
# its era checks into one mask table and its term kinds into one branch.
LENGTH_FOUR_SHA256 = "9f94df9f4c5ef051b2fa905f5b320eebccbb5a619200ae83ed11f291d8efb48e"


@pytest.mark.gate
def test_length_four_listing():
    # Every token sequence of length 4 (130,321 of them): classify's report
    # and the lenient parse's reading. About 14 s, so it runs with the gate.
    digest = hashlib.sha256()
    count = 0
    for toks in itertools.product(MORPHEMES, repeat=4):
        report = json.dumps(classify(toks).as_dict(), ensure_ascii=False)
        try:
            out = parse(toks, None)
        except NumeralParseError as exc:
            lenient = f"{exc.kind.value} {exc.position} {exc.message}"
        else:
            lenient = f"{out.value} {' | '.join(out.diagnostics)}"
        digest.update(f"{report}\n{lenient}\n".encode())
        count += 1
    assert count == 19**4 == 130_321
    assert digest.hexdigest() == LENGTH_FOUR_SHA256

