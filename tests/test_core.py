"""Morpheme inventory, era profiles, and surface tables."""

import copy
import doctest
import pickle
import re
from pathlib import Path

import pytest

import hannum
import hannum.core
from hannum.core import (
    CHRONOLOGY,
    DAN,
    EARLY_ERAS,
    LIANG,
    LING,
    LING_ALT,
    MORPHEMES,
    OUTER_EXPONENTS,
    RANK_EXPONENTS,
    YOU,
    Era,
    EraProfile,
    LeadingOnePolicy,
    LingPolicy,
    Morpheme,
    MorphemeKind,
    NonGenerableMorpheme,
    OneBeforeInnerMultiplicand,
    RenderOptions,
    Script,
    TwoStyle,
    YouPolicy,
    digit,
    era_profile,
    pivot,
    surface,
    token_notation,
)
from hannum.generate import render_integer
from hannum.parse import _HAN_CHARS, ScriptHint, parse, tokenize
from hannum.scan import _CONDITIONAL_CHARS, _CORE_CHARS

ROOT = Path(__file__).resolve().parent.parent


class TestMorphemes:
    def test_digit_factory_range(self):
        for v in range(1, 10):
            m = digit(v)
            assert m.kind is MorphemeKind.DIGIT
            assert m.value == v
        for bad in (0, 10, -1):
            with pytest.raises(ValueError):
                digit(bad)

    def test_pivot_factory_exponents(self):
        assert RANK_EXPONENTS == (1, 2, 3, 4, 8)
        for e in RANK_EXPONENTS:
            m = pivot(e)
            assert m.kind is MorphemeKind.PIVOT
            assert m.exponent == e
        for bad in (0, 5, 6, 7, 9):
            with pytest.raises(ValueError):
                pivot(bad)

    def test_outer_exponents(self):
        assert set(OUTER_EXPONENTS) == {4, 8}

    def test_factories_intern(self):
        assert digit(5) is digit(5)
        assert pivot(4) is pivot(4)

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            Morpheme(MorphemeKind.DIGIT)  # digit needs a value
        with pytest.raises(ValueError):
            Morpheme(MorphemeKind.PIVOT, value=3)  # pivot needs an exponent
        with pytest.raises(ValueError):
            Morpheme(MorphemeKind.LING, value=1)

    def test_liang_is_a_two(self):
        assert LIANG.kind is MorphemeKind.LIANG
        assert LIANG.value == 2

    def test_notation(self):
        assert token_notation(digit(5)) == "[5]"
        assert token_notation(LIANG) == "[2v]"
        assert token_notation(pivot(1)) == "[10]"
        assert token_notation(pivot(2)) == "[10^2]"
        assert token_notation(pivot(8)) == "[10^8]"
        assert token_notation(LING) == "líng"
        assert token_notation(YOU) == "yòu"
        assert token_notation(DAN) == "dān"
        assert token_notation(LING_ALT) == "lìng"


class TestInventoryTable:
    def test_nineteen_rows_with_distinct_codes(self):
        assert len(MORPHEMES) == 19
        assert len({m.code for m in MORPHEMES}) == 19
        assert len({m.notation for m in MORPHEMES}) == 19

    @pytest.mark.parametrize("m", MORPHEMES, ids=token_notation)
    def test_construction_returns_the_row(self, m):
        assert Morpheme(m.kind, m.value, m.exponent) is m

    @pytest.mark.parametrize("m", MORPHEMES, ids=token_notation)
    def test_pickle_and_copy_return_the_row(self, m):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        assert copy.deepcopy((m, [m])) == (m, [m])

    @pytest.mark.parametrize("m", MORPHEMES, ids=token_notation)
    def test_every_graph_and_syllable_tokenizes_to_the_row(self, m):
        assert m.graphs
        for graph in m.graphs:
            assert tokenize(graph) == (m,)
        assert tokenize(m.pinyin, ScriptHint.PINYIN) == (m,)

    def test_rows_are_immutable(self):
        with pytest.raises(AttributeError):
            digit(5).value = 6
        with pytest.raises(AttributeError):
            del LING.code

    def test_scan_span_sets_split_the_tokenizer_graphs(self):
        you_graphs = {g for g, m in _HAN_CHARS.items() if m is YOU}
        assert _CONDITIONAL_CHARS == you_graphs == {"有", "又"}
        assert _CORE_CHARS == set(_HAN_CHARS) - you_graphs
        assert _CORE_CHARS == set("一二三四五六七八九兩两十百千萬万億亿零單单另")

    def test_toneless_syllables(self):
        text = "er san si wu liu qi ba jiu liang shi bai qian wan ling you dan"
        assert tokenize(text, toneless=True) == (
            *(digit(v) for v in range(2, 10)),
            LIANG,
            *(pivot(e) for e in (1, 2, 3, 4)),
            LING,
            YOU,
            DAN,
        )


class TestDoctests:
    def test_package_doctests_pass(self):
        result = doctest.testmod(hannum)
        assert result.failed == 0
        assert result.attempted >= 5
        assert doctest.testmod(hannum.core).failed == 0

    def test_readme_examples_pass(self):
        # Only the code block is handed to doctest: read as part of the
        # prose, the closing fence would be taken for expected output.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```python\n(>>> .*?)```", readme, re.S).group(1)
        test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
        result = doctest.DocTestRunner().run(test)
        assert result.failed == 0
        assert result.attempted >= 4


_LEADING_ONE_CELLS = {
    LeadingOnePolicy.OMIT_BEFORE_HIGHEST: "omitted before highest pivot",
    LeadingOnePolicy.REQUIRED_ALL: "required before every pivot",
    LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN: "required except before a leading ten",
}
_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _readme_era_rows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("| era id |")
    lines = readme[start:].split("\n\n", 1)[0].splitlines()
    header, rule, *rows = ([c.strip() for c in line.strip("|").split("|")] for line in lines)
    return header, rule, rows


class TestReadmeEraTable:
    def test_every_row_has_every_cell(self):
        header, rule, rows = _readme_era_rows()
        assert len(header) == len(rule) == 10
        assert [row[0].strip("`") for row in rows] == [e.value for e in CHRONOLOGY]
        for row in rows:
            assert len(row) == len(header), row[0]

    @pytest.mark.parametrize("era", CHRONOLOGY)
    def test_row_matches_profile(self, era):
        _, _, rows = _readme_era_rows()
        (row,) = [r for r in rows if r[0] == f"`{era.value}`"]
        _, period, you, ling, lead, inner, liang, elliptic, zero, ceiling = row
        profile = era_profile(era)
        yes_no = {True: "yes", False: "no"}
        assert period == era.period.replace("centuries", "c.").replace("century", "c.")
        assert (you == "no") == (profile.you_policy is YouPolicy.FORBIDDEN)
        if you != "no":
            default_on = profile.you_policy is YouPolicy.OPTIONAL_DEFAULT_ON
            assert you == f"optional, default {'on' if default_on else 'off'}"
        required = profile.ling_policy is LingPolicy.REQUIRED
        assert ling == ("required at rank gaps" if required else "no")
        assert lead.startswith(_LEADING_ONE_CELLS[profile.leading_one_policy])
        omit = profile.inner_multiplicand_one is OneBeforeInnerMultiplicand.OMIT
        assert inner == ("omitted" if omit else "required")
        assert liang == yes_no[profile.liang_allowed]
        assert elliptic == yes_no[profile.elliptic_allowed]
        assert zero == yes_no[profile.zero_expressible]
        power, minus_one = ceiling.translate(_SUPERSCRIPTS).split(" − ")
        assert power.startswith("10") and minus_one == "1"
        assert 10 ** int(power[2:]) - 1 == profile.max_value


class TestSurfaces:
    def test_traditional_and_simplified(self):
        assert surface(pivot(4), Script.TRADITIONAL) == "萬"
        assert surface(pivot(4), Script.SIMPLIFIED) == "万"
        assert surface(pivot(8), Script.TRADITIONAL) == "億"
        assert surface(pivot(8), Script.SIMPLIFIED) == "亿"
        assert surface(LIANG, Script.TRADITIONAL) == "兩"
        assert surface(LIANG, Script.SIMPLIFIED) == "两"
        assert surface(LING, Script.TRADITIONAL) == "零"
        assert surface(YOU, Script.TRADITIONAL) == "有"

    def test_pinyin_tone_marks(self):
        assert surface(digit(1), Script.PINYIN) == "yī"
        assert surface(digit(2), Script.PINYIN) == "èr"
        assert surface(LIANG, Script.PINYIN) == "liǎng"
        assert surface(pivot(8), Script.PINYIN) == "yì"
        assert surface(LING, Script.PINYIN) == "líng"
        assert surface(YOU, Script.PINYIN) == "yòu"

    def test_tokens_script_uses_notation(self):
        assert surface(digit(7), Script.TOKENS) == "[7]"
        assert surface(DAN, Script.TOKENS) == "dān"

    def test_parse_only_morphemes_have_no_han_surface(self):
        for m in (DAN, LING_ALT):
            for script in (Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN):
                with pytest.raises(NonGenerableMorpheme):
                    surface(m, script)


class TestEras:
    def test_chronology_order(self):
        assert CHRONOLOGY == (
            Era.SHANG_ORACLE,
            Era.ZHOU_BRONZE,
            Era.WARRING_STATES,
            Era.SUANSHUSHU,
            Era.DUNHUANG,
            Era.NINE_CHAPTERS,
            Era.SONG_QIN,
            Era.CONTEMPORARY,
        )

    def test_early_eras(self):
        assert EARLY_ERAS == {
            Era.SHANG_ORACLE,
            Era.ZHOU_BRONZE,
            Era.WARRING_STATES,
        }

    def test_from_string_aliases(self):
        assert Era.from_string("sss") is Era.SUANSHUSHU
        assert Era.from_string("Suan Shu Shu") is Era.SUANSHUSHU
        assert Era.from_string("song") is Era.SONG_QIN
        assert Era.from_string("qin") is Era.SONG_QIN
        assert Era.from_string("modern") is Era.CONTEMPORARY
        assert Era.from_string("NINE-CHAPTERS") is Era.NINE_CHAPTERS
        with pytest.raises(ValueError):
            Era.from_string("tang")

    def test_labels_and_periods_exist(self):
        for era in Era:
            assert era.label
            assert era.period


class TestProfiles:
    def test_every_era_has_a_profile(self):
        for era in Era:
            profile = era_profile(era)
            assert isinstance(profile, EraProfile)
            assert profile.era is era

    def test_you_policies(self):
        assert era_profile(Era.SHANG_ORACLE).you_policy is YouPolicy.OPTIONAL_DEFAULT_OFF
        assert era_profile(Era.ZHOU_BRONZE).you_policy is YouPolicy.OPTIONAL_DEFAULT_ON
        assert era_profile(Era.WARRING_STATES).you_policy is YouPolicy.OPTIONAL_DEFAULT_OFF
        for era in (
            Era.SUANSHUSHU,
            Era.DUNHUANG,
            Era.NINE_CHAPTERS,
            Era.SONG_QIN,
            Era.CONTEMPORARY,
        ):
            assert era_profile(era).you_policy is YouPolicy.FORBIDDEN

    def test_ling_policies(self):
        for era in (
            Era.SHANG_ORACLE,
            Era.ZHOU_BRONZE,
            Era.WARRING_STATES,
            Era.SUANSHUSHU,
            Era.DUNHUANG,
            Era.NINE_CHAPTERS,
        ):
            assert era_profile(era).ling_policy is LingPolicy.FORBIDDEN
        assert era_profile(Era.SONG_QIN).ling_policy is LingPolicy.REQUIRED
        assert era_profile(Era.CONTEMPORARY).ling_policy is LingPolicy.REQUIRED

    def test_leading_one_policies(self):
        omit = LeadingOnePolicy.OMIT_BEFORE_HIGHEST
        for era in (
            Era.SHANG_ORACLE,
            Era.ZHOU_BRONZE,
            Era.WARRING_STATES,
            Era.SUANSHUSHU,
        ):
            assert era_profile(era).leading_one_policy is omit
        assert (
            era_profile(Era.DUNHUANG).leading_one_policy
            is LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN
        )
        assert (
            era_profile(Era.NINE_CHAPTERS).leading_one_policy
            is LeadingOnePolicy.REQUIRED_ALL
        )
        assert (
            era_profile(Era.SONG_QIN).leading_one_policy
            is LeadingOnePolicy.REQUIRED_ALL
        )
        assert (
            era_profile(Era.CONTEMPORARY).leading_one_policy
            is LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN
        )

    def test_inner_multiplicand_policy(self):
        require = OneBeforeInnerMultiplicand.REQUIRE
        omit = OneBeforeInnerMultiplicand.OMIT
        assert era_profile(Era.DUNHUANG).inner_multiplicand_one is omit
        assert era_profile(Era.SUANSHUSHU).inner_multiplicand_one is omit
        assert era_profile(Era.NINE_CHAPTERS).inner_multiplicand_one is require
        assert era_profile(Era.SONG_QIN).inner_multiplicand_one is require
        assert era_profile(Era.CONTEMPORARY).inner_multiplicand_one is require

    def test_liang_elliptic_zero_only_contemporary(self):
        for era in Era:
            profile = era_profile(era)
            expected = era is Era.CONTEMPORARY
            assert profile.liang_allowed is expected
            assert profile.elliptic_allowed is expected
            assert profile.zero_expressible is expected

    def test_max_values(self):
        for era in (
            Era.SHANG_ORACLE,
            Era.ZHOU_BRONZE,
            Era.WARRING_STATES,
            Era.SUANSHUSHU,
            Era.DUNHUANG,
            Era.NINE_CHAPTERS,
        ):
            assert era_profile(era).max_value == 10**8 - 1
        assert era_profile(Era.SONG_QIN).max_value == 10**12 - 1
        assert era_profile(Era.CONTEMPORARY).max_value == 10**12 - 1

    def test_era_profile_accepts_strings(self):
        assert era_profile("sss") is era_profile(Era.SUANSHUSHU)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: era_profile(3.0),
            lambda: era_profile(None),
            lambda: parse(tokenize("五"), 5),
            lambda: render_integer(5, None),
        ],
        ids=["era_profile-float", "era_profile-None", "parse-int", "render-None"],
    )
    def test_other_types_raise_type_error(self, call):
        with pytest.raises(TypeError, match="Era, an EraProfile or an era name"):
            call()


class TestRenderOptions:
    def test_defaults(self):
        opts = RenderOptions()
        assert opts.script is Script.TRADITIONAL
        assert opts.two_style is TwoStyle.ALWAYS_ER
        assert opts.use_you is None
        assert opts.elliptic is False
        assert opts.leading_ten_one is False
