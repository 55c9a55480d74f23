"""Rendering integers and unit phrases under each era grammar."""

import pytest

from hannum import (
    LIANG,
    LING,
    YOU,
    AllZeroAmount,
    EllipsisUnavailable,
    Era,
    MonthOutOfRange,
    MorphemeKind,
    RenderOptions,
    Script,
    StyleNotAllowed,
    TwoStyle,
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


class TestOrdinal:
    def test_ordinal_keeps_er(self):
        assert render_ordinal(2).text() == "第二"
        assert render_ordinal(2, with_prefix=False).text() == "二"

    def test_ordinal_larger(self):
        assert render_ordinal(105).text() == "第一百零五"


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


class TestUnitWord:
    def test_idempotent(self):
        w = unit_word("個")
        assert unit_word(w) is w

    def test_text(self):
        assert unit_word("個").text() == "個"


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

    def test_tokens_start_sane(self):
        rendered = render_integer(42)
        assert rendered.tokens[0] in (digit(4), pivot(1))
