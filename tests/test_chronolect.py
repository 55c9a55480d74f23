"""Era-consistency classification."""

import dataclasses
import itertools
import json

import pytest

import reference_walk
from hannum import (
    CHRONOLOGY,
    Era,
    NumeralParseError,
    ParseErrorKind,
    RenderOptions,
    classify,
    digit,
    feature_profile,
    parse,
    pivot,
    render_integer,
    tokenize,
)
from hannum.core import MORPHEMES


def consistent_values(report):
    return [e.value for e in report.consistent]


class TestSignatureRows:
    def test_you_selects_early_trio(self):
        report = classify("十有五")
        assert consistent_values(report) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
        ]
        for verdict in report.verdicts:
            if verdict.era in (Era.SHANG_ORACLE, Era.ZHOU_BRONZE, Era.WARRING_STATES):
                assert verdict.accepts
                assert verdict.value == 15
            else:
                assert not verdict.accepts

    def test_bare_juxtaposition(self):
        report = classify("百五")
        assert consistent_values(report) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
            "suanshushu",
        ]

    def test_explicit_one_juxtaposition(self):
        # Every grammar except the strictly-omitting one accepts this shape,
        # though the value read differs across them.
        report = classify("一百五")
        assert consistent_values(report) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
            "dunhuang",
            "nine-chapters",
            "song-qin",
            "contemporary",
        ]
        assert report.verdict_for(Era.NINE_CHAPTERS).value == 105
        assert report.verdict_for(Era.CONTEMPORARY).value == 150

    def test_ling_selects_late_pair(self):
        report = classify("一百零五")
        assert consistent_values(report) == ["song-qin", "contemporary"]

    def test_full_tens_form(self):
        report = classify("一百五十")
        assert consistent_values(report) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
            "dunhuang",
            "nine-chapters",
            "song-qin",
            "contemporary",
        ]

    def test_bare_tens_form(self):
        report = classify("百五十")
        assert consistent_values(report) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
            "suanshushu",
        ]

    def test_liang_contemporary_only(self):
        report = classify("兩千五百")
        assert consistent_values(report) == ["contemporary"]

    def test_standalone_zero_contemporary_only(self):
        report = classify("零")
        assert consistent_values(report) == ["contemporary"]

    def test_gap_word_song_qin_only(self):
        report = classify("一百單五")
        assert consistent_values(report) == ["song-qin"]


class TestReportShape:
    def test_verdict_per_era_in_order(self):
        report = classify("十五")
        assert tuple(v.era for v in report.verdicts) == CHRONOLOGY

    def test_rejection_carries_error(self):
        report = classify("十有五")
        verdict = report.verdict_for("contemporary")
        assert not verdict.accepts
        assert verdict.error is not None
        assert verdict.error.kind.value == "OutOfEraMorpheme"

    def test_earliest_and_latest(self):
        report = classify("十有五")
        assert report.earliest_consistent is Era.SHANG_ORACLE
        assert report.latest_consistent is Era.WARRING_STATES

    def test_empty_consistent_set(self):
        report = classify("兩十")
        assert report.consistent == ()
        assert report.earliest_consistent is None
        assert report.latest_consistent is None
        assert any("no era grammar" in note for note in report.notes)

    def test_notes_you_frequency(self):
        report = classify("十有五")
        joined = " ".join(report.notes)
        assert "yòu" in joined
        assert "5%" in joined and "98%" in joined and "8%" in joined

    def test_notes_ling_revival(self):
        report = classify("一百零五")
        joined = " ".join(report.notes)
        assert "líng" in joined
        assert "12th c." in joined

    def test_notes_gap_word(self):
        report = classify("一百單五")
        assert any("dān" in note for note in report.notes)

    def test_notes_liang(self):
        report = classify("兩千")
        assert any("liǎng" in note for note in report.notes)

    def test_notes_elliptic(self):
        report = classify("一百五")
        assert any("elliptic" in note for note in report.notes)

    def test_as_dict_json_serializable(self):
        report = classify("十有五")
        payload = report.as_dict()
        text = json.dumps(payload, ensure_ascii=False)
        decoded = json.loads(text)
        assert decoded["consistent_eras"] == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
        ]
        assert decoded["earliest_consistent"] == "shang-oracle"
        assert len(decoded["verdicts"]) == 8
        rejecting = [v for v in decoded["verdicts"] if v["verdict"] == "rejects"]
        assert all("error" in v for v in rejecting)

    def test_accepts_tokens_and_expressions(self):
        toks = tokenize("十有五")
        assert consistent_values(classify(toks)) == [
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
        ]
        rendered = render_integer(105)
        assert "contemporary" in consistent_values(classify(rendered))


class TestCoherence:
    @pytest.mark.parametrize("era", list(Era))
    def test_own_render_always_consistent(self, era):
        for n in (1, 10, 15, 105, 150, 659, 1089, 99999):
            rendered = render_integer(n, era)
            report = classify(rendered.tokens)
            assert era in report.consistent

    def test_adding_you_removes_contemporary(self):
        base = classify(render_integer(15, "shang-oracle").tokens)
        assert Era.CONTEMPORARY in base.consistent
        with_you = classify(
            render_integer(15, "shang-oracle", RenderOptions(use_you=True)).tokens
        )
        assert Era.CONTEMPORARY not in with_you.consistent

    def test_consistent_set_in_chronological_order(self):
        report = classify("一百五")
        order = {e: i for i, e in enumerate(CHRONOLOGY)}
        ranks = [order[e] for e in report.consistent]
        assert ranks == sorted(ranks)

    def test_pure_function(self):
        a = classify("十有五").as_dict()
        b = classify("十有五").as_dict()
        assert a == b


class TestFeatureProfile:
    def test_full_parse_features(self):
        feats = feature_profile("一百零五")
        assert feats.uses_ling is True
        assert feats.uses_you is False
        assert feats.leading_one_before_highest is True

    def test_fallback_presence_flags(self):
        # Unparseable even leniently: flags fall back to token presence.
        feats = feature_profile("兩十")
        assert feats.liang_present is True
        assert feats.elliptic is False

    def test_unknown_character_still_raises(self):
        with pytest.raises(NumeralParseError):
            feature_profile("三犬")

    def test_every_short_sequence(self):
        # Every token sequence of length 1-3: the lenient parse's features
        # where it accepts, else the token flags with elliptic False.
        accepted = 0
        for n in (1, 2, 3):
            for toks in itertools.product(MORPHEMES, repeat=n):
                try:
                    expected = parse(toks, None).features
                    accepted += 1
                except NumeralParseError:
                    codes = [t.code for t in toks]
                    expected = reference_walk._features(codes, False)
                assert feature_profile(toks) == expected, toks
        assert accepted == 1_281


class TestMixedSequence:
    """A sequence that mixes str with morphemes is one TypeError, whichever
    comes first, naming the argument of the function called."""

    @pytest.mark.parametrize("read", [classify, feature_profile])
    @pytest.mark.parametrize(
        "items",
        [[digit(1), "一"], ["一", digit(1)], [digit(1), pivot(1), "一"]],
        ids=["morpheme-first", "str-first", "str-last"],
    )
    def test_one_type_error(self, read, items):
        with pytest.raises(TypeError) as info:
            read(items)
        assert str(info.value) == (
            "source must be text, a sequence of str or a sequence of numeral "
            "Morphemes, not a sequence that mixes str and Morpheme"
        )


class TestOtherSequence:
    """A sequence whose items are neither all str nor all morphemes is the
    TypeError that names source, not parse's."""

    @pytest.mark.parametrize("read", [classify, feature_profile])
    @pytest.mark.parametrize(
        "items, held",
        [([1, 2], "int"), (b"\xe4", "int"), ([None], "NoneType"), ([1], "int"),
         ([digit(1), 1.5], "float"), (["一", None, 2], "NoneType, int")],
        ids=["ints", "bytes", "none", "one-int", "morpheme-float", "str-none-int"],
    )
    def test_names_source(self, read, items, held):
        with pytest.raises(TypeError) as info:
            read(items)
        assert str(info.value) == (
            "source must be text, a sequence of str or a sequence of numeral "
            f"Morphemes, not a sequence holding {held}"
        )

    def test_parse_keeps_its_message(self):
        with pytest.raises(TypeError, match="^parse expects a sequence of numeral Morphemes$"):
            parse([1, 2])

    def test_verdict_for_a_name_of_another_type(self):
        report = classify("十五")
        with pytest.raises(TypeError, match="^an era name must be a str, not NoneType$"):
            report.verdict_for(None)
        assert report.verdict_for("song") is report.verdict_for(Era.SONG_QIN)

    def test_verdict_for_an_era_the_report_lacks(self):
        # classify gives every era a verdict; a report built without one
        # has none to give.
        report = dataclasses.replace(classify("十五"), verdicts=())
        with pytest.raises(KeyError):
            report.verdict_for(Era.SONG_QIN)


class TestNotIterable:
    """What cannot be iterated at all is the same TypeError, naming the type
    it got, not Python's bare 'object is not iterable'."""

    @pytest.mark.parametrize("read", [classify, feature_profile])
    @pytest.mark.parametrize(
        "source, name", [(None, "NoneType"), (5, "int"), (1.5, "float")]
    )
    def test_names_source(self, read, source, name):
        with pytest.raises(TypeError) as info:
            read(source)
        assert str(info.value) == (
            "source must be text, a sequence of str or a sequence of numeral "
            f"Morphemes, not {name}"
        )
        assert info.value.__cause__ is None and info.value.__suppress_context__

    @pytest.mark.parametrize(
        "tokens, name", [(None, "NoneType"), (5, "int"), (object(), "object")]
    )
    def test_parse_names_tokens(self, tokens, name):
        with pytest.raises(TypeError) as info:
            parse(tokens)
        assert str(info.value) == (
            f"parse expects a sequence of numeral Morphemes, not {name}"
        )


class TestStrSequence:
    """A sequence of str reads as tokenize and parse_text read it: as the
    string of its items."""

    @pytest.mark.parametrize(
        "items", [["一", "十"], ("一", "百", "五"), ["一", " ", "\t", "", "十"],
                  list("十有五"), list("兩十")],
    )
    def test_reads_like_the_string(self, items):
        text = "".join(items)
        assert classify(items).as_dict() == classify(text).as_dict()
        assert feature_profile(items) == feature_profile(text)

    @pytest.mark.parametrize("read", [classify, feature_profile])
    def test_non_graph_item_at_its_index(self, read):
        with pytest.raises(NumeralParseError) as info:
            read(["一", "x"])
        assert info.value.kind is ParseErrorKind.UNKNOWN_CHARACTER
        assert info.value.position == 1

    def test_whitespace_items_alone(self):
        with pytest.raises(NumeralParseError) as info:
            classify([" ", "\n"])
        assert info.value.kind is ParseErrorKind.EMPTY_INPUT
