"""Rendering integers and unit phrases under each era grammar."""

import copy
import itertools
import re
from dataclasses import replace

import pytest

from hannum import generate, phrase
from hannum import (
    LIANG,
    LING,
    YOU,
    DEFAULT_OPTIONS,
    AllZeroAmount,
    EllipsisUnavailable,
    Era,
    LingPolicy,
    MonthOutOfRange,
    MorphemeKind,
    RenderOptions,
    Script,
    StyleNotAllowed,
    TwoStyle,
    UnitWord,
    ValueOutOfRange,
    ZeroInexpressible,
    digit,
    era_profile,
    pivot,
    render_currency,
    render_duration,
    render_elliptic,
    render_integer,
    render_ordinal,
    render_quantity,
    unit_word,
)


def text(n, era=Era.CONTEMPORARY, **kwargs):
    return render_integer(n, era, RenderOptions(**kwargs)).text()


class TestContemporary:
    def test_small_values(self):
        assert text(0) == "零"
        assert text(5) == "五"
        assert text(10) == "十"
        assert text(14) == "十四"
        assert text(99) == "九十九"

    def test_leading_ten_keeps_bare_ten_by_default(self):
        assert text(10) == "十"
        assert text(15) == "十五"
        assert text(115000) == "十一萬五千"

    def test_leading_ten_one_option(self):
        assert text(15, leading_ten_one=True) == "一十五"
        assert text(115000, leading_ten_one=True) == "一十一萬五千"

    def test_one_required_before_inner_pivots(self):
        assert text(105) == "一百零五"
        assert text(1001) == "一千零一"
        assert text(111) == "一百一十一"

    def test_ling_at_rank_gaps(self):
        assert text(1050) == "一千零五十"
        assert text(10005) == "一萬零五"
        assert text(30070) == "三萬零七十"
        assert text(900009) == "九十萬零九"

    def test_single_ling_per_gap(self):
        # Two skipped ranks inside one group still yield one líng.
        assert text(1005) == "一千零五"
        assert text(100000007) == "一億零七"

    def test_ling_after_outer_pivot(self):
        assert text(1_305_000_080) == "十三億零五百萬零八十"

    def test_no_ling_when_no_gap(self):
        rendered = render_integer(111111, Era.CONTEMPORARY)
        assert all(t.kind is not MorphemeKind.LING for t in rendered.tokens)

    def test_simplified_script(self):
        assert render_integer(25000).text(Script.SIMPLIFIED) == "两万五千" or (
            render_integer(25000).text(Script.SIMPLIFIED) == "二万五千"
        )
        assert render_integer(100000000).text(Script.SIMPLIFIED) == "一亿"

    def test_pinyin_script(self):
        assert render_integer(105).text(Script.PINYIN) == "yī bǎi líng wǔ"
        assert render_integer(2).text(Script.PINYIN) == "èr"

    def test_max_value(self):
        top = 10**12 - 1
        render_integer(top, Era.CONTEMPORARY)
        with pytest.raises(ValueOutOfRange):
            render_integer(top + 1, Era.CONTEMPORARY)

    @pytest.mark.parametrize("n", [10**12, 10**12 + 5, 10**15])
    def test_no_rank_above_the_myriad_myriad(self, n):
        # A custom ceiling past 10^12 - 1 does not make 10^12 nameable.
        profile = replace(era_profile(Era.CONTEMPORARY), max_value=10**15)
        message = f"^{n} needs a rank above 10\\^8, and none exists$"
        with pytest.raises(ValueOutOfRange, match=message):
            render_integer(n, profile)
        with pytest.raises(ValueOutOfRange, match=message):
            render_quantity(n, "個", profile)
        assert render_integer(10**12 - 1, profile).value == 10**12 - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueOutOfRange):
            render_integer(-1)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        # bool is an int subclass, but True is not the numeral 1.
        message = f"^expected a non-negative integer, got {flag}$"
        for era in (Era.CONTEMPORARY, Era.SUANSHUSHU):
            with pytest.raises(ValueOutOfRange, match=message):
                render_integer(flag, era)
        with pytest.raises(ValueOutOfRange, match=message):
            render_integer(flag, opts=RenderOptions(elliptic=True))
        with pytest.raises(ValueOutOfRange, match=message):
            render_quantity(flag, "個")


class TestLiangStyle:
    def test_liang_before_high_pivots(self):
        assert text(2222, two_style=TwoStyle.PREFER_LIANG) == "兩千兩百二十二"
        assert text(20000, two_style=TwoStyle.PREFER_LIANG) == "兩萬"
        assert text(200000000, two_style=TwoStyle.PREFER_LIANG) == "兩億"

    def test_standalone_two_stays_er(self):
        # liang needs a following rank word or classifier to attach to.
        assert text(2, two_style=TwoStyle.PREFER_LIANG) == "二"
        assert text(22, two_style=TwoStyle.PREFER_LIANG) == "二十二"

    def test_er_kept_before_ten(self):
        assert text(22, two_style=TwoStyle.PREFER_LIANG) == "二十二"
        assert text(220, two_style=TwoStyle.PREFER_LIANG) == "兩百二十"

    def test_er_kept_on_multi_compound_outer_slot(self):
        # When a compound multiplier precedes wan/yi the final 2 stays er.
        rendered = render_integer(
            32_0000, Era.CONTEMPORARY, RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        )
        assert rendered.text() == "三十二萬"
        assert all(t is not LIANG for t in rendered.tokens)

    def test_liang_rejected_outside_contemporary(self):
        for era in Era:
            if era is Era.CONTEMPORARY:
                continue
            with pytest.raises(StyleNotAllowed):
                render_integer(2222, era, RenderOptions(two_style=TwoStyle.PREFER_LIANG))

    def test_always_er_default(self):
        assert text(2222) == "二千二百二十二"
        rendered = render_integer(2222)
        assert all(t is not LIANG for t in rendered.tokens)


class TestEarlyEras:
    def test_shang_default_no_you(self):
        assert text(15, "shang-oracle") == "十五"
        assert text(659, "shang-oracle") == "六百五十九"

    def test_shang_you_on_request(self):
        assert text(15, "shang-oracle", use_you=True) == "十有五"
        assert text(659, "shang-oracle", use_you=True) == "六百有五十有九"

    def test_zhou_default_you(self):
        assert text(15, "zhou-bronze") == "十有五"
        assert text(105, "zhou-bronze") == "百有五"
        assert text(150, "zhou-bronze") == "百有五十"

    def test_zhou_you_suppressed_on_request(self):
        assert text(15, "zhou-bronze", use_you=False) == "十五"

    def test_you_sites(self):
        # The junction word occurs after hundreds and tens compounds, never
        # after thousands, so 1200 offers no junction site at all.
        assert text(12, "zhou-bronze") == "十有二"
        assert text(1200, "zhou-bronze") == "千二百"
        assert text(1215, "zhou-bronze") == "千二百有一十有五"
        assert text(1005, "zhou-bronze") == "千五"

    def test_leading_one_omitted(self):
        assert text(100, "shang-oracle") == "百"
        assert text(1000, "warring-states") == "千"
        assert text(10000, "shang-oracle") == "萬"
        assert text(105, "shang-oracle") == "百五"
        assert text(150, "shang-oracle") == "百五十"

    def test_you_forbidden_later(self):
        for era in ("suanshushu", "dunhuang", "nine-chapters", "song-qin", "contemporary"):
            with pytest.raises(StyleNotAllowed):
                render_integer(15, era, RenderOptions(use_you=True))

    def test_zero_inexpressible(self):
        for era in Era:
            if era is Era.CONTEMPORARY:
                continue
            with pytest.raises(ZeroInexpressible):
                render_integer(0, era)

    def test_early_max_value(self):
        for era in ("shang-oracle", "zhou-bronze", "warring-states"):
            render_integer(10**8 - 1, era)
            with pytest.raises(ValueOutOfRange):
                render_integer(10**8, era)


class TestSuanshushu:
    def test_juxtaposition_names_gaps(self):
        assert text(210, "suanshushu") == "二百一十"
        assert text(2016, "suanshushu") == "二千一十六"
        assert text(150, "suanshushu") == "百五十"
        assert text(7129, "suanshushu") == "七千一百二十九"
        assert text(1089, "suanshushu") == "千八十九"
        assert text(11520, "suanshushu") == "萬一千五百二十"
        assert text(11100, "suanshushu") == "萬一千一百"

    def test_no_ling_ever(self):
        rendered = render_integer(1089, "suanshushu")
        assert all(t.kind is not MorphemeKind.LING for t in rendered.tokens)


class TestDunhuang:
    def test_one_written_except_leading_ten(self):
        assert text(100, "dunhuang") == "一百"
        assert text(1000, "dunhuang") == "一千"
        assert text(10, "dunhuang") == "十"
        assert text(15, "dunhuang") == "十五"
        assert text(111, "dunhuang") == "一百一十一"

    def test_leading_ten_one_option(self):
        assert text(115000, "dunhuang", leading_ten_one=True) == "一十一萬五千"

    def test_gap_by_juxtaposition(self):
        assert text(1089, "dunhuang") == "一千八十九"


class TestNineChapters:
    def test_one_written_everywhere(self):
        assert text(10, "nine-chapters") == "一十"
        assert text(15, "nine-chapters") == "一十五"
        assert text(100, "nine-chapters") == "一百"
        assert text(105, "nine-chapters") == "一百五"
        assert text(150, "nine-chapters") == "一百五十"
        assert text(11520, "nine-chapters") == "一萬一千五百二十"


class TestSongQin:
    def test_ling_required(self):
        assert text(105, "song-qin") == "一百零五"
        assert text(1089, "song-qin") == "一千零八十九"

    def test_large_values(self):
        render_integer(10**12 - 1, "song-qin")
        with pytest.raises(ValueOutOfRange):
            render_integer(10**12, "song-qin")

    def test_no_elliptic(self):
        with pytest.raises(StyleNotAllowed):
            render_integer(150, "song-qin", RenderOptions(elliptic=True))


class TestElliptic:
    def test_basic_elliptic(self):
        assert text(150, elliptic=True) == "一百五"
        assert text(1500, elliptic=True) == "一千五"
        assert text(15000, elliptic=True) == "一萬五"
        assert text(3400, elliptic=True) == "三千四"

    def test_elliptic_flag_set(self):
        rendered = render_integer(150, Era.CONTEMPORARY, RenderOptions(elliptic=True))
        assert rendered.elliptic is True
        assert rendered.incorporable is False

    def test_full_form_is_elliptic_plus_final_pivot(self):
        full = render_integer(150)
        short = render_integer(150, Era.CONTEMPORARY, RenderOptions(elliptic=True))
        assert short.tokens == full.tokens[:-1]

    def test_elliptic_needs_adjacent_trailing_ranks(self):
        for bad in (105, 1050, 15, 7, 1005, 100):
            with pytest.raises(EllipsisUnavailable):
                render_integer(bad, Era.CONTEMPORARY, RenderOptions(elliptic=True))

    def test_elliptic_only_contemporary(self):
        for era in Era:
            if era is Era.CONTEMPORARY:
                continue
            with pytest.raises(StyleNotAllowed):
                render_integer(150, era, RenderOptions(elliptic=True))

    def test_render_elliptic_direct(self):
        assert render_elliptic(56000).text() == "五萬六"


class TestExpressionValue:
    @pytest.mark.parametrize("era", list(Era), ids=lambda e: e.value)
    def test_value_is_read_under_the_expressions_era(self, era):
        profile = era_profile(era)
        low = 0 if profile.zero_expressible else 1
        for n in (*range(low, 1200), 10_005, 10_050, 150_000, profile.max_value):
            assert render_integer(n, era).value == n

    def test_elliptic_forms_and_bare_liang(self):
        for style in (TwoStyle.ALWAYS_ER, TwoStyle.PREFER_LIANG):
            opts = RenderOptions(two_style=style)
            for n in range(1, 30_000, 7):
                try:
                    rendered = render_elliptic(n, Era.CONTEMPORARY, opts)
                except EllipsisUnavailable:
                    continue
                assert rendered.value == n
        bare_liang = render_quantity(2, "個").items[0]
        assert bare_liang.tokens == (LIANG,)
        assert bare_liang.value == 2


class TestQuantity:
    def test_two_flips_to_liang(self):
        assert render_quantity(2, "個").text() == "兩個"
        assert render_quantity(2, "層").text() == "兩層"

    def test_two_stays_er_before_liang_unit(self):
        assert render_quantity(2, "兩").text() == "二兩"

    def test_larger_counts(self):
        assert render_quantity(150, "個").text() == "一百五十個"
        assert render_quantity(12, "人").text() == "十二人"

    def test_no_elliptic_incorporation(self):
        with pytest.raises(StyleNotAllowed):
            render_quantity(150, "個", opts=RenderOptions(elliptic=True))

    def test_contemporary_only(self):
        with pytest.raises(StyleNotAllowed):
            render_quantity(3, "個", era="song-qin")

    def test_options_checked_against_the_profile(self):
        # A contemporary profile without liang refuses a liang style here as
        # render_integer does, bare 2 included; the standard profile's
        # quantities do not change.
        no_liang = replace(era_profile(Era.CONTEMPORARY), liang_allowed=False)
        for style in (TwoStyle.PREFER_LIANG, TwoStyle.READING):
            opts = RenderOptions(two_style=style)
            with pytest.raises(StyleNotAllowed) as expected:
                render_integer(2000, no_liang, opts)
            for n in (2000, 2):
                with pytest.raises(StyleNotAllowed) as got:
                    render_quantity(n, "個", no_liang, opts)
                assert str(got.value) == str(expected.value)
            assert render_quantity(2000, "個", opts=opts).text() == (
                "兩千個" if style is TwoStyle.PREFER_LIANG else "二千個"
            )
            assert render_quantity(2, "個", opts=opts).text() == "兩個"

    def test_bare_two_is_liang_only_under_a_profile_with_liang(self):
        no_liang = replace(era_profile(Era.CONTEMPORARY), liang_allowed=False)
        two = render_quantity(2, "個", no_liang)
        assert two.text() == "二個"
        assert two.items[0].tokens == (digit(2),)
        assert two.items[0].value == 2
        assert render_quantity(2, "兩", no_liang).text() == "二兩"
        assert render_quantity(2, "個").text() == "兩個"
        assert render_quantity(2, "層").text() == "兩層"
        assert render_quantity(2, "兩").text() == "二兩"
        assert render_currency(2, 2, 2).text() == "兩元兩角兩分"
        assert render_duration(2, 2).text() == "兩年零兩個月"
        assert render_duration(22, 2).text() == "二十二年零兩個月"

    def test_bare_two_refuses_a_banned_you(self):
        # The contemporary profile bans you: a bare 2 before a measure word
        # is refused as 3 is there, and as render_integer refuses 2.
        opts = RenderOptions(use_you=True)
        with pytest.raises(StyleNotAllowed) as expected:
            render_integer(2, opts=opts)
        for n in (2, 3):
            with pytest.raises(StyleNotAllowed) as got:
                render_quantity(n, "個", opts=opts)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    def test_unknown_classifier_is_written_as_given(self):
        assert unit_word("本") == UnitWord("本", "本", "本")
        assert render_quantity(3, "本").text() == "三本"

    @pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u3000"], ids=repr)
    def test_classifier_with_no_written_form_is_refused(self, blank):
        # Else 3 would read as a bare 三 and 2 as a bare 兩.
        message = f"^a classifier needs a written form, not {re.escape(repr(blank))}$"
        with pytest.raises(ValueError, match=message):
            unit_word(blank)
        for n in (2, 3):
            with pytest.raises(ValueError, match=message):
                render_quantity(n, blank)

    @pytest.mark.parametrize("blank", ["", " ", "\u3000"], ids=repr)
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_unit_word_record_with_a_blank_form_is_refused(self, blank, field):
        # The record refuses what unit_word refuses, so no caller can pass
        # a blank classifier by building one: 2 would read as a bare 兩.
        forms = ["個", "个", "gè"]
        forms[field] = blank
        message = f"^a classifier needs a written form, not {re.escape(repr(blank))}$"
        with pytest.raises(ValueError, match=message):
            UnitWord(*forms)
        with pytest.raises(ValueError, match=message):
            render_quantity(2, UnitWord(blank, blank, blank))

    @pytest.mark.parametrize(
        "forms, name, kind",
        [
            ((5, "个", "gè"), "traditional", "int"),
            (("個", None, "gè"), "simplified", "NoneType"),
            (("個", "个", b"ge"), "pinyin", "bytes"),
            # Every type is checked before any text.
            ((" ", 5, None), "simplified", "int"),
        ],
    )
    def test_unit_word_record_field_must_be_a_str(self, forms, name, kind):
        with pytest.raises(TypeError, match=f"^{name} must be a str, not {kind}$"):
            UnitWord(*forms)

    def test_built_in_unit_words_build_unchanged(self):
        built_in = set(phrase._UNIT_WORDS.values())
        assert len(built_in) == 11
        for word in built_in:
            rebuilt = UnitWord(word.traditional, word.simplified, word.pinyin)
            assert rebuilt == word
            assert unit_word(word.traditional) is word

    @pytest.mark.parametrize("bad", [None, ["x"], 5, b"x"], ids=repr)
    def test_classifier_of_another_type_is_refused(self, bad):
        # Refused before render_quantity returns, not when text() joins it.
        message = f"^expected a str or a UnitWord, not {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            unit_word(bad)
        with pytest.raises(TypeError, match=message):
            render_quantity(5, bad)


class TestOrdinal:
    def test_ordinal_keeps_er(self):
        assert render_ordinal(2).text() == "第二"
        assert render_ordinal(2, with_prefix=False).text() == "二"

    def test_ordinal_larger(self):
        assert render_ordinal(105).text() == "第一百零五"

    def test_positions_start_at_one(self):
        with pytest.raises(ValueOutOfRange) as info:
            render_ordinal(0)
        assert str(info.value) == "ordinal positions start at 1, got 0"

    def test_contemporary_only(self):
        with pytest.raises(StyleNotAllowed) as info:
            render_ordinal(3, "song-qin")
        assert str(info.value) == "ordinals are rendered in the contemporary profile only"


class TestCurrency:
    def test_full_amount(self):
        assert render_currency(3, 8, 5).text() == "三元八角五分"

    def test_ling_links_skipped_jiao(self):
        assert render_currency(3, 0, 5).text() == "三元零五分"

    def test_no_ling_without_yuan(self):
        assert render_currency(0, 0, 5).text() == "五分"

    def test_trailing_zeroes_dropped(self):
        assert render_currency(3, 8, 0).text() == "三元八角"
        assert render_currency(3, 0, 0).text() == "三元"

    def test_terse_drops_fen_word(self):
        assert render_currency(3, 8, 5, terse=True).text() == "三元八角五"
        # With no jiao and no link the fen word must stay.
        assert render_currency(0, 0, 5, terse=True).text() == "五分"

    def test_two_uses_liang_in_yuan_slot(self):
        assert render_currency(2, 0, 0).text() == "兩元"

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroAmount):
            render_currency(0, 0, 0)

    @pytest.mark.parametrize(
        "amount, message",
        [
            ((-1,), "yuan must be non-negative, got -1"),
            ((1, -1), "jiao must be a single digit, got -1"),
            ((1, 10), "jiao must be a single digit, got 10"),
            ((1, 0, -1), "fen must be a single digit, got -1"),
            ((1, 0, 10), "fen must be a single digit, got 10"),
        ],
    )
    def test_component_out_of_range(self, amount, message):
        with pytest.raises(ValueOutOfRange) as info:
            render_currency(*amount)
        assert str(info.value) == message


class TestDuration:
    def test_link_word_always_present(self):
        assert render_duration(1, 5).text() == "一年零五個月"
        assert render_duration(1, 11).text() == "一年零十一個月"

    def test_two_months_liang(self):
        assert render_duration(2, 2).text() == "兩年零兩個月"

    def test_month_range(self):
        with pytest.raises(MonthOutOfRange):
            render_duration(1, 0)
        with pytest.raises(MonthOutOfRange):
            render_duration(1, 12)

    def test_years_start_at_one(self):
        with pytest.raises(ValueOutOfRange) as info:
            render_duration(0, 5)
        assert str(info.value) == "years must be at least 1, got 0"


class TestNonNumericInput:
    # Each renderer checks the type before it compares, so a value that is
    # not an int is the ValueOutOfRange that render_integer raises for it,
    # never a comparison TypeError, and None is not read as 0.
    @pytest.mark.parametrize("bad", ["x", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda bad: render_ordinal(bad),
            lambda bad: render_currency(bad),
            lambda bad: render_currency(1, bad),
            lambda bad: render_duration(bad, 1),
            lambda bad: render_duration(1, bad),
            lambda bad: render_integer(bad),
            lambda bad: render_elliptic(bad),
            lambda bad: render_quantity(bad, "個"),
        ],
        ids=[
            "ordinal", "currency-yuan", "currency-jiao", "duration-years",
            "duration-months", "integer", "elliptic", "quantity",
        ],
    )
    def test_raises_value_out_of_range(self, call, bad):
        with pytest.raises(ValueOutOfRange) as info:
            call(bad)
        assert str(info.value) == f"expected a non-negative integer, got {bad!r}"


class TestUnitWord:
    def test_idempotent(self):
        w = unit_word("個")
        assert unit_word(w) is w

    def test_text(self):
        assert unit_word("個").text() == "個"

    @pytest.mark.parametrize(
        "script, written",
        [
            (Script.TRADITIONAL, "個"),
            (Script.SIMPLIFIED, "个"),
            (Script.PINYIN, "ge"),
            (Script.TOKENS, "ge"),
        ],
        ids=lambda v: v.value if isinstance(v, Script) else v,
    )
    def test_text_in_each_script(self, script, written):
        assert unit_word("個").text(script) == written
        assert unit_word("个").text(script) == written

    def test_phrase_of_a_non_morpheme_is_a_type_error(self):
        for script in Script:
            with pytest.raises(TypeError, match="^expected a Morpheme, not int$"):
                phrase.NumeralPhrase(items=(5,)).text(script)


class TestScriptType:
    # text() takes a Script member only; a name, None or an unhashable value
    # is an error, never a silent fallback to another script.
    @pytest.mark.parametrize(
        "script", ["traditional", "simplified", "pinyin", None, [], {}]
    )
    @pytest.mark.parametrize(
        "written",
        [
            lambda: render_integer(105),
            lambda: render_currency(3, 0, 5),
            lambda: render_quantity(2, "個"),
            lambda: UnitWord("個", "个", "ge"),
        ],
        ids=["expression", "currency-phrase", "quantity-phrase", "unit-word"],
    )
    def test_text_rejects_other_types(self, written, script):
        with pytest.raises(TypeError, match="^expected a Script, not "):
            written().text(script)


class TestOptionsArgument:
    """opts=None reads as DEFAULT_OPTIONS in every renderer, and a two_style
    that is not a TwoStyle is refused before any other check."""

    @pytest.mark.parametrize(
        "era",
        [Era.CONTEMPORARY, "contemporary", era_profile(Era.CONTEMPORARY)],
        ids=["era", "name", "profile"],
    )
    def test_none_reads_as_the_defaults(self, era):
        def fields(expr):
            return expr.tokens, expr.era, expr.elliptic, id(expr.profile)

        for n in (5, 105, 20_000):
            assert fields(render_integer(n, era, None)) == fields(render_integer(n, era))
        for n in (150, 2_300):
            assert fields(render_elliptic(n, era, None)) == fields(render_elliptic(n, era))
        for n in (2, 150):
            got = render_quantity(n, "個", era, None)
            want = render_quantity(n, "個", era, DEFAULT_OPTIONS)
            assert fields(got.items[0]) == fields(want.items[0])
            assert got.items[1] == want.items[1]
        assert render_integer(5, era, None).profile is era_profile(Era.CONTEMPORARY)

    @pytest.mark.parametrize("bad", ["liang", "er", None])
    @pytest.mark.parametrize("era", [Era.CONTEMPORARY, Era.SUANSHUSHU])
    @pytest.mark.parametrize("n", [2000, "x"])
    def test_two_style_of_another_type_is_refused(self, bad, era, n):
        opts = RenderOptions(two_style=bad)
        message = f"^two_style must be a TwoStyle, not {type(bad).__name__}$"
        calls = [render_integer, render_elliptic]
        if era is Era.CONTEMPORARY:  # quantities are contemporary only
            calls.append(lambda n, era, opts: render_quantity(n, "個", era, opts))
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call(n, era, opts)

    @pytest.mark.parametrize("bad", ["no", 0, 1, None], ids=repr)
    @pytest.mark.parametrize("field", ["use_you", "elliptic", "leading_ten_one"])
    @pytest.mark.parametrize("era", [Era.CONTEMPORARY, Era.ZHOU_BRONZE])
    @pytest.mark.parametrize("n", [15, 150, "x"])
    def test_bool_fields_of_another_type_are_refused(self, bad, field, era, n):
        # Read by truthiness, 'no' would render 十有五, 一百五 or 一十五.
        opts = RenderOptions(**{field: bad})
        calls = [render_integer, render_elliptic]
        if era is Era.CONTEMPORARY:  # quantities are contemporary only
            calls.append(lambda n, era, opts: render_quantity(n, "個", era, opts))
        if field == "use_you" and bad is None:
            # None defers to the era: every call gives what DEFAULT_OPTIONS
            # gives, value or error.
            for call in calls:
                try:
                    want = call(n, era, DEFAULT_OPTIONS)
                except ValueError as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        call(n, era, opts)
                else:
                    assert call(n, era, opts) == want
            return
        kind = "None or a bool" if field == "use_you" else "a bool"
        message = f"^{field} must be {kind}, not {type(bad).__name__}$"
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call(n, era, opts)
        # The two_style check comes first.
        opts = RenderOptions(two_style="er", **{field: bad})
        for call in calls:
            with pytest.raises(TypeError, match="^two_style must be a TwoStyle"):
                call(n, era, opts)

    @pytest.mark.parametrize("bad", ["no", 0, 1, None], ids=repr)
    def test_phrase_flags_of_another_type_are_refused(self, bad):
        # Read by truthiness, 'no' would give 第二 and 三元零五. The check
        # comes before the era's and the amounts'.
        kind = type(bad).__name__
        with pytest.raises(TypeError, match=f"^with_prefix must be a bool, not {kind}$"):
            render_ordinal(2, with_prefix=bad)
        with pytest.raises(TypeError, match=f"^with_prefix must be a bool, not {kind}$"):
            render_ordinal(0, "tang", bad)
        with pytest.raises(TypeError, match=f"^terse must be a bool, not {kind}$"):
            render_currency(3, 0, 5, terse=bad)
        with pytest.raises(TypeError, match=f"^terse must be a bool, not {kind}$"):
            render_currency(0, 0, 0, bad)

    @pytest.mark.parametrize("bad", ["x", {}, 1], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda n, era, opts: render_integer(n, era, opts),
            lambda n, era, opts: render_elliptic(n, era, opts),
            lambda n, era, opts: render_quantity(n, "個", era, opts),
        ],
        ids=["integer", "elliptic", "quantity"],
    )
    @pytest.mark.parametrize("era", [Era.CONTEMPORARY, "contemporary"], ids=repr)
    def test_opts_of_another_type_is_refused(self, bad, call, era):
        message = f"^opts must be a RenderOptions or None, not {type(bad).__name__}$"
        for n in (5, 150, "x"):
            with pytest.raises(TypeError, match=message):
                call(n, era, bad)


# Every render refuses in one order. Each stage is a way to break one
# argument of a call that renders 150 under a contemporary profile without
# liang, with the error that stage raises; a render takes the stages that
# apply to it. The phrase stage is a classifier quantity's elliptic option
# and an ordinal's profile of another era; the form stage is a value with
# no elliptic name.
_NO_LIANG = replace(era_profile(Era.CONTEMPORARY), liang_allowed=False)
_STAGES = {
    "opts": ({"opts": "x"}, TypeError, "^opts must be a RenderOptions"),
    "era": ({"era": "tang"}, ValueError, "^unknown era 'tang'"),
    "field": ({"use_you": 1}, TypeError, "^use_you must be None or a bool"),
    "style": ({"two_style": TwoStyle.PREFER_LIANG}, StyleNotAllowed, "liang variant"),
    "quantity-phrase": ({"elliptic": True}, StyleNotAllowed, "before a classifier"),
    "ordinal-phrase": (
        {"era": Era.SUANSHUSHU}, StyleNotAllowed, "^ordinals are rendered in the contemporary"
    ),
    "value": ({"n": -1}, ValueOutOfRange, "^(expected a non-negative|ordinal positions)"),
    "form": ({"n": 5}, EllipsisUnavailable, "^5 has no droppable final pivot"),
}
_ORDER_CALLS = {
    "integer": (
        lambda a: render_integer(a["n"], a["era"], a["opts"]),
        ["opts", "era", "field", "style", "value"],
    ),
    "elliptic": (
        lambda a: render_elliptic(a["n"], a["era"], a["opts"]),
        ["opts", "era", "field", "style", "value", "form"],
    ),
    "quantity": (
        lambda a: render_quantity(a["n"], "個", a["era"], a["opts"]),
        ["opts", "era", "field", "style", "quantity-phrase", "value"],
    ),
    "ordinal": (lambda a: render_ordinal(a["n"], a["era"]), ["era", "ordinal-phrase", "value"]),
}


def _order_call(broken):
    """The arguments of a call that breaks each stage of broken, or None
    where two of them break the same argument."""
    changes = [_STAGES[stage][0] for stage in broken]
    if len({key for change in changes for key in change}) < sum(map(len, changes)):
        return None
    args = {"n": 150, "era": _NO_LIANG}
    fields = {}
    for change in changes:
        for key, value in change.items():
            (args if key in ("n", "era", "opts") else fields)[key] = value
    args.setdefault("opts", RenderOptions(**fields))
    return args


class TestRefusalOrder:
    """Every render refuses in one order: opts, era, option fields, styles,
    what the phrase allows, the value, the form."""

    @pytest.mark.parametrize("render", sorted(_ORDER_CALLS))
    def test_each_stage_alone(self, render):
        call, stages = _ORDER_CALLS[render]
        assert call(_order_call([]))  # the base call renders
        for stage in stages:
            _, error, message = _STAGES[stage]
            with pytest.raises(error, match=message):
                call(_order_call([stage]))

    @pytest.mark.parametrize("render", sorted(_ORDER_CALLS))
    def test_the_earlier_stage_wins(self, render):
        # Each pair of stages, adjacent or not, that a call can break at
        # once; the adjacent pairs that cannot (two stages of one argument)
        # are the ordinal's era and phrase and the elliptic name's value
        # and form.
        call, stages = _ORDER_CALLS[render]
        unbroken = []
        for first, later in itertools.combinations(stages, 2):
            args = _order_call([first, later])
            if args is None:
                unbroken.append((first, later))
                continue
            _, error, message = _STAGES[first]
            with pytest.raises(error, match=message):
                call(args)
        assert unbroken == {
            "ordinal": [("era", "ordinal-phrase")], "elliptic": [("value", "form")],
        }.get(render, [])

    def test_opts_comes_before_the_phrase(self):
        # An opts or a field of the wrong type is a TypeError before a
        # profile other than the contemporary one, or an elliptic option,
        # is refused for a quantity.
        with pytest.raises(TypeError, match="^opts must be a RenderOptions"):
            render_quantity(5, "個", Era.SUANSHUSHU, opts="x")
        with pytest.raises(TypeError, match="^use_you must be None or a bool"):
            render_quantity(5, "個", opts=RenderOptions(elliptic=True, use_you=1))
        with pytest.raises(TypeError, match="^opts must be a RenderOptions"):
            render_elliptic(150, "tang", "x")


class TestGeneratorInvariants:
    def test_no_ling_outside_ling_eras(self):
        for era in ("shang-oracle", "zhou-bronze", "warring-states", "suanshushu",
                    "dunhuang", "nine-chapters"):
            for n in (105, 1001, 1050, 10005, 30070):
                rendered = render_integer(n, era)
                assert all(t.kind is not MorphemeKind.LING for t in rendered.tokens)

    def test_no_you_outside_early_eras(self):
        for era in ("suanshushu", "dunhuang", "nine-chapters", "song-qin", "contemporary"):
            for n in (15, 150, 659, 115):
                rendered = render_integer(n, era)
                assert all(t is not YOU for t in rendered.tokens)

    def test_liang_never_directly_before_ten(self):
        opts = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        for n in range(20, 30):
            toks = render_integer(n * 10 + 2, Era.CONTEMPORARY, opts).tokens
            for a, b in zip(toks, toks[1:]):
                if b.kind is MorphemeKind.PIVOT and b.exponent == 1:
                    assert a is not LIANG

    def test_str_is_the_traditional_text(self):
        assert str(render_integer(105)) == "一百零五"
        assert str(render_quantity(2, "個")) == "兩個"

    def test_tokens_start_sane(self):
        rendered = render_integer(42)
        assert rendered.tokens[0] in (digit(4), pivot(1))


class TestRenderPlan:
    """render_integer reads each era's constant plan under DEFAULT_OPTIONS
    and resolves every other call's plan afresh. Each case renders twice in
    a row with the same options object, so a plan kept by the first call
    would show in the second."""

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize(
        "era, values",
        [(Era.CONTEMPORARY, (0, "x", 5)), (Era.SUANSHUSHU, (0, 10**8, 5))],
    )
    def test_a_banned_you_comes_before_value_errors(self, era, values, order):
        # 0, a value of the wrong type and one past the ceiling are refused
        # for You like 5 is, whatever came before them.
        opts = RenderOptions(use_you=True)
        for k in order:
            for _ in range(2):
                with pytest.raises(StyleNotAllowed, match="conjunction you"):
                    render_integer(values[k], era, opts)

    def test_style_errors_come_before_value_errors(self):
        opts = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        plans = dict(generate._PLANS)
        for n in ("x", 0, 5, 5):
            with pytest.raises(StyleNotAllowed, match="liang"):
                render_integer(n, Era.SUANSHUSHU, opts)
        with pytest.raises(StyleNotAllowed, match="liang"):
            generate._plan(era_profile(Era.SUANSHUSHU), opts)
        assert generate._PLANS == plans
        assert all(generate._PLANS[era] is plan for era, plan in plans.items())
        with pytest.raises(StyleNotAllowed, match="conjunction you"):
            render_quantity(0, "個", opts=RenderOptions(use_you=True))
        # Under every era, each of the 36 option sets that 5 is refused
        # under, liang, elliptic or You, is refused the same way for every
        # value, in range or not.
        refused = 0
        for era, two, you, ell, ten in itertools.product(
            Era, TwoStyle, (None, False, True), (False, True), (False, True)
        ):
            opts = RenderOptions(
                two_style=two, use_you=you, elliptic=ell, leading_ten_one=ten
            )
            try:
                render_integer(5, era, opts)
            except StyleNotAllowed as exc:
                refused += 1
                for n in (-1, 0, "x", 2, 10**8, 10**12):
                    with pytest.raises(StyleNotAllowed) as info:
                        render_integer(n, era, opts)
                    assert str(info.value) == str(exc), (era, opts, n)
            except generate.RenderError:
                pass
        assert refused

    def test_equal_but_distinct_options(self):
        a = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        b = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        assert a == b and a is not b
        for opts in (a, a, b, b, a, RenderOptions(), a):
            want = "兩千兩百二十二" if opts == a else "二千二百二十二"
            assert render_integer(2222, Era.CONTEMPORARY, opts).text() == want

    def test_custom_profile_never_reads_the_eras_plan(self):
        plan = generate._PLANS[Era.CONTEMPORARY]
        custom = replace(
            era_profile(Era.CONTEMPORARY), ling_policy=LingPolicy.FORBIDDEN
        )
        for opts in (DEFAULT_OPTIONS, RenderOptions()):
            assert render_integer(105, Era.CONTEMPORARY, opts).text() == "一百零五"
            for _ in range(2):
                expr = render_integer(105, custom, opts)
                assert expr.text() == "一百五"
                assert expr.profile is custom
                assert render_integer(105, "contemporary", opts).text() == "一百零五"
                assert generate._PLANS[Era.CONTEMPORARY] is plan
            expr = render_integer(105, Era.CONTEMPORARY, opts)
            assert expr.profile is era_profile(Era.CONTEMPORARY)
        assert generate._plan(custom, DEFAULT_OPTIONS)[0] is custom

    def test_plans_stay_within_their_bound(self):
        # _PLANS holds exactly the eight eras, and no render writes any
        # module-level object of generate but the group memo: each container
        # keeps its items, by identity and, nested, by value.
        assert set(generate._PLANS) == set(Era) and len(generate._PLANS) == 8

        def items(value):
            pairs = value.items() if isinstance(value, dict) else zip(value, value)
            return [(id(k), id(v)) for k, v in pairs]

        state = {
            name: (value, items(value), copy.deepcopy(value))
            for name, value in vars(generate).items()
            if isinstance(value, (dict, list, set))
            and name not in ("_group_memo", "__builtins__")
        }
        names = set(vars(generate))
        for era in Era:
            for n in range(1, 40):
                opts = RenderOptions(use_you=None if n % 2 else False)
                render_integer(n, era, opts)
                render_integer(n, era.value, opts)
                render_integer(n, era_profile(era), opts)
                render_integer(n, era)
        liang = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
        for n in range(1, 40):
            render_integer(n, Era.CONTEMPORARY, liang)
            render_quantity(n, "個", opts=liang)
            render_currency(n, n % 10)
            render_duration(n, n % 11 + 1)
            render_ordinal(n)
            render_elliptic(110 * (n % 9 + 1))
        assert set(vars(generate)) == names
        for name, (value, ids, before) in state.items():
            assert vars(generate)[name] is value, name
            assert items(value) == ids and value == before, name

    def test_plans_are_the_default_resolution(self):
        for era in Era:
            profile = era_profile(era)
            assert generate._PLANS[era] == generate._plan(profile, RenderOptions())
            assert generate._PLANS[era][0] is profile

    @pytest.mark.parametrize("era", list(Era))
    def test_fresh_default_options_match_the_constant_plan(self, monkeypatch, era):
        # Each side in turn meets the memo cold, the other then reads it warm.
        fresh = lambda n: _result(lambda: render_integer(n, era, RenderOptions()))
        constant = lambda n: _result(lambda: render_integer(n, era))
        for first, second in ((fresh, constant), (constant, fresh)):
            monkeypatch.setattr(generate, "_group_memo", {})
            for n in _EDGES:
                for _ in range(2):
                    assert first(n) == second(n), n


class _Int(int):
    pass


_CEILINGS = sorted({era_profile(era).max_value for era in Era})
_EDGES = [
    0, 1, 9_999, 10**4, 10**4 + 1, 10**8 - 1, 10**8,
    10**8 + 1, 100_020_003, 300_000_000_005, 123_456_789_012,
    *_CEILINGS, *(c + 1 for c in _CEILINGS), -1, True, 2.0, _Int(105),
]


def _result(render):
    """A render's expression as its fields (profile by identity), or its
    error as type and message."""
    try:
        expr = render()
    except Exception as exc:
        return type(exc), str(exc)
    return expr.tokens, expr.era, expr.elliptic, id(expr.profile)


class TestRenderFastPath:
    """render_integer reads a plain int of one, two or three groups straight
    from the group memo; every value, and every error in its order, must be
    what _render_full gives under the same plan, with the memo cold and
    warm."""

    @pytest.mark.parametrize("era", list(Era))
    @pytest.mark.parametrize(
        "opts", [RenderOptions(), RenderOptions(use_you=True), DEFAULT_OPTIONS],
        ids=["default", "use-you", "DEFAULT_OPTIONS"],
    )
    def test_matches_full_render(self, monkeypatch, era, opts):
        monkeypatch.setattr(generate, "_group_memo", {})
        try:
            profile, rules = generate._plan(era, opts)
        except StyleNotAllowed as exc:
            # A banned You: every value is refused for it, cold and warm.
            for n in _EDGES:
                got = [_result(lambda: render_integer(n, era, opts)) for _ in range(2)]
                assert got == [(StyleNotAllowed, str(exc))] * 2, n
            return
        assert profile is era_profile(era)
        if opts is DEFAULT_OPTIONS:
            assert generate._PLANS[era] == (profile, rules)
        for n in _EDGES:
            # Cold, then warm: the first render fills the memo for the second.
            got = [_result(lambda: render_integer(n, era, opts)) for _ in range(2)]
            want = _result(lambda: generate._render_full(n, profile, rules))
            assert got == [want, want], n

    @pytest.mark.parametrize("era", list(Era))
    def test_memo_serves_a_second_render(self, monkeypatch, era):
        # The fast path packs _render_full's memo keys by hand; if the two
        # drift apart, every call falls through to _render_full.
        monkeypatch.setattr(generate, "_group_memo", {})
        values = (1_234, 56_780_912, 30_000)
        if era_profile(era).max_value >= 10**12 - 1:
            # Three groups, their coefficients in no other value here, so a
            # wrong key misses: the top, middle and last after it, and the
            # last straight after the top.
            values += (210_987_650_043, 700_000_000_005)
        first = [render_integer(n, era) for n in values]

        def refuse(*args):
            raise AssertionError("the render missed the group memo")

        monkeypatch.setattr(generate, "_render_full", refuse)
        assert [render_integer(n, era) for n in values] == first

    def test_custom_ceiling(self, monkeypatch):
        monkeypatch.setattr(generate, "_group_memo", {})
        profile = replace(era_profile(Era.CONTEMPORARY), max_value=12_345)
        _, rules = generate._plan(profile, RenderOptions())
        for n in (*_EDGES, 12_345, 12_346):
            want = _result(lambda: generate._render_full(n, profile, rules))
            for _ in range(2):
                assert _result(lambda: render_integer(n, profile)) == want, n

    def test_ceiling_past_the_largest_pivot(self, monkeypatch):
        # The fast path takes every plain int up to the profile's ceiling;
        # one of 10^12 or more finds no top group, every stored coefficient
        # being below 10^4, so _render_full refuses it, the memo warm with
        # its lower groups or not.
        monkeypatch.setattr(generate, "_group_memo", {})
        profile = replace(era_profile(Era.CONTEMPORARY), max_value=10**15)
        values = (10**12, 10**12 + 10**4 + 1, 99_999_9999_9999, 10**15)
        for warm in (False, True):
            if warm:
                for n in (10**8 + 10**4 + 1, 10**12 - 1, 10**8):
                    render_integer(n, profile)
            for n in values:
                message = f"^{n} needs a rank above 10\\^8, and none exists$"
                with pytest.raises(ValueOutOfRange, match=message):
                    render_integer(n, profile)
