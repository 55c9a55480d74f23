"""The scanner's per-text memo against the span-by-span reference.

hannum.scan reads each distinct span text once per scan_text call, up to a
fixed number of texts, and `hannum scan --json` serializes each text's
fields once. tests/reference_scan.py reads and tallies every span on its
own; both must give the same records, errors and summary, era-set order
included, below and past the memo bound.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import hannum.cli
import hannum.scan
from hannum.cli import main
from hannum.scan import _spans, scan_text

import reference_scan


def _assert_same_scan(text):
    records, summary = scan_text(text)
    ref_records, ref_summary = reference_scan.scan_text(text)
    assert len(records) == len(ref_records)
    for rec, ref in zip(records, ref_records):
        assert (rec.byte_offset, rec.line, rec.column, rec.text) == (
            ref.byte_offset, ref.line, ref.column, ref.text
        )
        assert rec.consistent_eras == ref.consistent_eras
        assert rec.outcome == ref.outcome
        if ref.error is None:
            assert rec.error is None
        else:
            assert type(rec.error) is type(ref.error)
            assert (rec.error.kind, rec.error.position, rec.error.message) == (
                ref.error.kind, ref.error.position, ref.error.message
            )
        assert rec.as_dict() == ref.as_dict()
    assert summary == ref_summary
    assert list(summary.era_sets) == list(ref_summary.era_sets)
    return records, summary


# Well-formed and malformed spans, 有/又 at span edges and inside, filler.
_SPAN_PIECES = [
    "十五", "一百", "三千四", "一百零五", "十有五", "兩千", "两万五千", "百五",
    "十十五", "兩十", "百百", "零", "單", "另", "萬一", "二十又三",
]
_FILLER = ["有", "又", "人", "，", "\n", " ", "a", "山水", "😀"]
_pieces = st.sampled_from(_SPAN_PIECES + _FILLER)


@settings(max_examples=400, deadline=None)
@given(st.lists(_pieces, max_size=40).map("".join))
def test_repeated_spans_match_reference(text):
    _assert_same_scan(text)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(_pieces, st.text(alphabet="一二三十百千萬億零兩有又單另", max_size=6)),
        max_size=30,
    ).map("".join)
)
def test_inventory_runs_match_reference(text):
    _assert_same_scan(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "沒有數字",
        "十十五，十十五，兩十，兩十，十十五",
        "有十五又",
        "又十有五有",
        "十有五人十有五人又十有五",
        "一百\n一百\n三千四\n一百，三千四",
        "他有三隻貓，又有三隻狗，三三三",
        "十五" * 50,
    ],
)
def test_examples_match_reference(text):
    _assert_same_scan(text)


def test_equal_texts_share_readings():
    records, _ = scan_text("十五人十五，兩十，兩十")
    assert [r.text for r in records] == ["十五", "十五", "兩十", "兩十"]
    assert records[0].outcome is records[1].outcome
    assert records[2].error is records[3].error
    assert records[2].error is not None


def _ten_texts_repeated():
    texts = ["十", "十一", "十二", "兩十", "一百", "百百", "十有五", "三千四",
             "十十五", "萬"]
    return texts, "，".join(texts * 3)


def _count_tokenize(monkeypatch):
    calls = []
    original = hannum.scan.tokenize

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(hannum.scan, "tokenize", counted)
    return calls


def test_each_distinct_text_is_read_once(monkeypatch):
    texts, text = _ten_texts_repeated()
    calls = _count_tokenize(monkeypatch)
    records, _ = scan_text(text)
    assert len(records) == 30
    assert sorted(calls) == sorted(texts)


def test_past_the_memo_bound(monkeypatch):
    texts, text = _ten_texts_repeated()
    monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", 2)
    calls = _count_tokenize(monkeypatch)
    records, summary = _assert_same_scan(text)
    # The first two texts are remembered; the other eight are read again at
    # every occurrence, and the tallies still count every span.
    assert len(calls) == 2 + 8 * 3
    assert summary.expressions == 30
    assert sum(summary.era_sets.values()) == 30


def _json_lines(capsys, path):
    assert main(["scan", "--json", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("bound", [None, 2])
def test_json_lines_equal_as_dict(monkeypatch, capsys, tmp_path, bound):
    if bound is not None:
        monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", bound)
        monkeypatch.setattr(hannum.cli, "_MEMO_TEXTS", bound)
    texts, text = _ten_texts_repeated()
    text += "\n他有三隻貓，十有五又兩十"
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    records, summary = scan_text(text)
    expected = [json.dumps(r.as_dict(), ensure_ascii=False) for r in records]
    expected.append(json.dumps({"summary": summary.as_dict()}, ensure_ascii=False))

    serialized = []
    original = hannum.scan.ScanRecord.reading_dict

    def counted(self):
        serialized.append(self.text)
        return original(self)

    monkeypatch.setattr(hannum.scan.ScanRecord, "reading_dict", counted)
    assert _json_lines(capsys, path) == expected
    # Each distinct text is serialized once; past the bound, every text after
    # the first two is serialized at each occurrence.
    distinct = len(texts) + 2  # 三 and 十有五又兩十
    if bound is None:
        assert len(serialized) == distinct
    else:
        assert len(serialized) == 2 + len(records) - 3 * 2


_edge_text = st.lists(
    st.one_of(
        st.sampled_from(["有", "又", "十", "五", "萬", "零", "兩", "\n", "a"]),
        st.text(max_size=4),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), _edge_text))
def test_span_regex_matches_character_loop(text):
    assert _spans(text) == reference_scan._spans(text)
