"""Corpus scanning: span extraction, offsets, and tallies."""

import pytest

from hannum import Era, ParseErrorKind, RenderError, render_integer, scan_text
from hannum.scan import _FINANCIAL_GRAPHS, _UNREAD_GRAPHS, summary_csv_rows


class TestSpans:
    def test_single_expression(self):
        records, summary = scan_text("共一百零五人")
        assert len(records) == 1
        assert records[0].text == "一百零五"
        assert records[0].outcome.value == 105
        assert summary.expressions == 1
        assert summary.parsed == 1

    def test_junction_word_needs_numeral_neighbors(self):
        # 有 between numeral characters joins a span; after a non-numeral it
        # does not start or extend one.
        records, summary = scan_text("十有五")
        assert len(records) == 1
        assert records[0].text == "十有五"
        assert summary.with_you == 1

        records, summary = scan_text("他有三隻貓")
        assert len(records) == 1
        assert records[0].text == "三"
        assert summary.with_you == 0

    def test_you_at_text_edge_excluded(self):
        records, _ = scan_text("又五人")
        assert records[0].text == "五"
        records, _ = scan_text("五又")
        assert records[0].text == "五"

    def test_mixed_you_tally(self):
        _, summary = scan_text("十有五人又三十")
        assert summary.expressions == 2
        assert summary.with_you == 1
        assert summary.without_you == 1

    def test_multiple_spans(self):
        records, summary = scan_text("一百零五隻貓與三千隻狗")
        assert [r.text for r in records] == ["一百零五", "三千"]
        assert summary.expressions == 2

    def test_simplified_characters(self):
        records, _ = scan_text("两万五千元")
        assert records[0].text == "两万五千"
        assert records[0].outcome.value == 25000


class TestOffsets:
    def test_line_and_column(self):
        text = "第一行\n第二行有三百隻貓\n第三行"
        records, _ = scan_text(text)
        by_text = {r.text: r for r in records}
        assert "三百" in by_text
        rec = by_text["三百"]
        assert rec.line == 2
        assert rec.column == 5  # 1-based character column

    def test_byte_offsets(self):
        text = "abc三十def"
        records, _ = scan_text(text)
        rec = records[0]
        assert rec.byte_offset == len("abc".encode("utf-8"))
        assert text.encode("utf-8")[rec.byte_offset:].decode("utf-8").startswith("三十")

    def test_offset_after_multibyte_prefix(self):
        text = "貓貓貓五十"
        records, _ = scan_text(text)
        assert records[0].byte_offset == len("貓貓貓".encode("utf-8"))


class TestRecords:
    def test_error_record(self):
        # A span that cannot parse is still reported, with the failure.
        records, summary = scan_text("兩十個人")
        assert len(records) == 1
        rec = records[0]
        assert not rec.ok
        assert rec.error is not None
        assert summary.errors == 1
        assert rec.consistent_eras == ()

    def test_record_as_dict_ok(self):
        records, _ = scan_text("一百零五")
        d = records[0].as_dict()
        assert d["status"] == "ok"
        assert d["value"] == 105
        assert d["text"] == "一百零五"
        assert "features" in d
        assert isinstance(d["consistent_eras"], list)

    def test_record_as_dict_error(self):
        records, _ = scan_text("兩十")
        d = records[0].as_dict()
        assert d["status"] == "error"
        assert d["error"]["kind"] == "LiangBeforeShi"

    def test_consistent_eras_on_record(self):
        records, _ = scan_text("十有五")
        assert {e.value for e in records[0].consistent_eras} == {
            "shang-oracle",
            "zhou-bronze",
            "warring-states",
        }


class TestUnreadGraphs:
    """〇 廿 卅 卌 are numeral graphs outside the morpheme table. A span that
    holds one is a single UnknownCharacter error at its first such graph,
    with no consistent era and no feature; no fragment of it is read."""

    def test_year_and_ligature(self):
        records, summary = scan_text("廿五年，二〇二六年")
        assert [(r.text, r.ok, r.error.kind, r.error.position, r.consistent_eras)
                for r in records] == [
            ("廿五", False, ParseErrorKind.UNKNOWN_CHARACTER, 0, ()),
            ("二〇二六", False, ParseErrorKind.UNKNOWN_CHARACTER, 1, ()),
        ]
        assert records[1].error.message == "character '〇' is not in the numeral inventory"
        assert summary.as_dict() == {
            "expressions": 2, "parsed": 0, "errors": 2, "with_you": 0,
            "without_you": 2, "with_ling": 0, "with_liang": 0, "elliptic": 0,
            "era_sets": {"none": 2},
        }

    def test_every_rendering_with_a_graph_inserted_or_substituted(self):
        # Every distinct rendering of every n <= 10^3 under the eight eras'
        # defaults, with each graph inserted at or substituted for each
        # position: the mutant is one span, an error at that position.
        renderings = set()
        for era in Era:
            for n in range(1001):
                try:
                    renderings.add(render_integer(n, era).text())
                except RenderError:
                    pass
        assert len(renderings) > 1000
        for text in sorted(renderings):
            mutants = [
                (text[:k] + graph + text[k + cut:], k)
                for graph in _UNREAD_GRAPHS
                for cut in (0, 1)
                for k in range(len(text) + 1 - cut)
            ]
            records, summary = scan_text("，".join(m for m, _ in mutants))
            assert [
                (r.text, r.outcome, r.error.kind, r.error.position) for r in records
            ] == [
                (m, None, ParseErrorKind.UNKNOWN_CHARACTER, k) for m, k in mutants
            ], text
            assert summary.parsed == 0
            assert summary.era_sets == {"none": len(mutants)}


class TestFinancialForms:
    """The financial forms 壹 貳 ... 仟 are numeral graphs outside the
    morpheme table and prose words besides. One joins a span only where it
    touches another span graph; a span that holds one is a single
    UnknownCharacter error at its first such graph, with no consistent era
    and no feature."""

    @pytest.mark.parametrize("text, spans", [
        ("伍拾萬元", [("伍拾萬", 0)]),
        ("人民幣貳萬叁仟元", [("貳萬叁仟", 0)]),
        ("三拾元", [("三拾", 1)]),
        ("壹佰伍拾元", [("壹佰伍拾", 0)]),
        ("三拾有五", [("三拾有五", 1)]),
        ("拾三個", [("拾三", 0)]),
        # A junction graph joins before a form that touches a span graph.
        ("十有拾五", [("十有拾五", 2)]),
        ("廿五年，二〇二六年，壹佰伍拾元",
         [("廿五", 0), ("二〇二六", 1), ("壹佰伍拾", 0)]),
    ])
    def test_a_span_with_a_form_is_one_error(self, text, spans):
        records, summary = scan_text(text)
        assert [
            (r.text, r.outcome, r.error.kind, r.error.position, r.consistent_eras)
            for r in records
        ] == [
            (span, None, ParseErrorKind.UNKNOWN_CHARACTER, k, ()) for span, k in spans
        ]
        assert summary.era_sets == {"none": len(spans)}
        assert summary.with_you == summary.with_ling == summary.with_liang == 0

    @pytest.mark.parametrize("text, spans", [
        ("他拾起三個", [("三", 3)]),
        ("陸有五人", [("五", 5)]),
        ("參加了二十人", [("二十", 20)]),
        ("拾有五", [("五", 5)]),
        ("五有拾", [("五", 5)]),
    ])
    def test_a_lone_form_is_prose(self, text, spans):
        records, _ = scan_text(text)
        assert [(r.text, r.outcome.value) for r in records] == spans

    def test_every_rendering_with_a_form_inserted_or_substituted(self):
        # Every distinct rendering of every n <= 300 under the eight eras'
        # defaults (zhou-bronze's with yòu among them), with each form
        # inserted at or substituted for each position. A form that touches
        # a graph of the rendering makes the mutant one span, an error at
        # that position; a form that touches none, or only yòu, is prose.
        renderings = set()
        for era in Era:
            for n in range(301):
                try:
                    renderings.add(render_integer(n, era).text())
                except RenderError:
                    pass
        assert len(renderings) > 300
        for text in sorted(renderings):
            mutants = [
                (text[:k] + form + text[k + cut:], k,
                 {text[k - 1:k], text[k + cut:k + cut + 1]})
                for form in _FINANCIAL_GRAPHS
                for cut in (0, 1)
                for k in range(len(text) + 1 - cut)
            ]
            records, _ = scan_text("，".join(m for m, _, _ in mutants))
            touching = [
                (m, None, ParseErrorKind.UNKNOWN_CHARACTER, k)
                for m, k, neighbors in mutants if neighbors - {"", "有", "又"}
            ]
            # Each touching mutant is one error record, whole, and no other
            # record is an error; a record that held a form would be one.
            errors = [
                (r.text, r.outcome, r.error.kind, r.error.position)
                for r in records if not r.ok
            ]
            assert errors == touching, text


class TestSummary:
    def test_feature_tallies(self):
        text = "十有五人，一百零五隻，兩千隻，一百五斤，七個"
        _, summary = scan_text(text)
        assert summary.expressions == 5
        assert summary.with_you == 1
        assert summary.with_ling == 1
        assert summary.with_liang == 1
        assert summary.elliptic == 1
        assert summary.errors == 0

    def test_era_set_keys(self):
        _, summary = scan_text("十有五")
        assert "shang-oracle+zhou-bronze+warring-states" in summary.era_sets

    def test_era_set_none_key(self):
        _, summary = scan_text("兩十")
        assert summary.era_sets.get("none") == 1

    def test_summary_as_dict(self):
        _, summary = scan_text("一百零五")
        d = summary.as_dict()
        assert d["expressions"] == 1
        assert d["with_ling"] == 1
        assert isinstance(d["era_sets"], dict)

    def test_csv_rows(self):
        _, summary = scan_text("一百零五")
        rows = summary_csv_rows(summary)
        keys = [k for k, _ in rows]
        assert keys[:8] == [
            "expressions",
            "parsed",
            "errors",
            "with_you",
            "without_you",
            "with_ling",
            "with_liang",
            "elliptic",
        ]
        assert all(isinstance(v, str) for _, v in rows)

    def test_empty_text(self):
        records, summary = scan_text("no numerals here")
        assert records == []
        assert summary.expressions == 0


class TestArgument:
    @pytest.mark.parametrize("text", [None, b"\xe4\xb8\x80", 105, ["一"]])
    def test_not_a_str_names_text_and_type(self, text):
        with pytest.raises(TypeError) as info:
            scan_text(text)
        assert str(info.value) == (
            f"scan_text expects text as a str, not {type(text).__name__}"
        )

    def test_str_subclass_is_text(self):
        class Text(str):
            pass

        records, _ = scan_text(Text("共一百零五人"))
        assert [r.outcome.value for r in records] == [105]
