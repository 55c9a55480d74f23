"""Tokenizing surface text and parsing morpheme sequences per era grammar."""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

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
    parse,
    parse_text,
    pivot,
    render_integer,
    tokenize,
)
from hannum.core import MORPHEMES, LingPolicy, era_profile
from hannum.parse import _read_span


def err(callable_, *args, **kwargs):
    with pytest.raises(NumeralParseError) as info:
        callable_(*args, **kwargs)
    return info.value


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

    def test_script_hint_forced_han(self):
        e = err(tokenize, "yi", ScriptHint.HAN)
        assert e.kind is ParseErrorKind.UNKNOWN_CHARACTER


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


class TestShortSequences:
    """Exhaustive pins over SHORT_SEQUENCES under all nine grammars."""

    # sha256 of the listing below, taken from the per-era parser that the
    # one-walk parser replaced.
    GOLDEN = "faa069c890abd3dc58adc0b95a274f16dbd672a2ceb9fa4d0855c2bf85c0f73a"

    def test_golden_listing(self):
        lines = []
        for toks in SHORT_SEQUENCES:
            for era in (*CHRONOLOGY, None):
                try:
                    out = parse(toks, era)
                except NumeralParseError as exc:
                    lines.append(f"{exc.kind.value} {exc.position} {exc.message}")
                else:
                    feats = "".join(
                        "1" if flag else "0" for flag in out.features.as_dict().values()
                    )
                    lines.append(f"{out.value} {feats} {' | '.join(out.diagnostics)}")
        assert len(lines) == 7239 * 9
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.GOLDEN

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
                    got = verdict.error
                    assert (got.kind, got.position, got.message) == (
                        exc.kind, exc.position, exc.message
                    ), (toks, era)
                else:
                    assert verdict.value == value, (toks, era)

    def test_read_span_matches_parse_and_classify(self):
        # scan reads each span in one walk; its lenient reading must be what
        # parse(toks, None) returns or raises, and its eras and features what
        # classify reports.
        assert len(SHORT_SEQUENCES) == 7239
        for toks in SHORT_SEQUENCES:
            outcome, error, consistent, features = _read_span(toks)
            try:
                expected = parse(toks, None)
            except NumeralParseError as exc:
                assert outcome is None, toks
                assert (error.kind, error.position, error.message) == (
                    exc.kind, exc.position, exc.message
                ), toks
            else:
                assert error is None, toks
                assert outcome == expected, toks
            report = classify(toks)
            assert consistent == report.consistent, toks
            assert features == report.features, toks


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

