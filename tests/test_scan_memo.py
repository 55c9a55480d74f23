"""The scanner's per-text memos against the span-by-span reference.

hannum.scan reads each distinct span text once per process, up to a fixed
number of texts of a fixed length, and once per scan_text call past that;
`hannum scan --json` serializes each text's fields once per process under
the same bounds. tests/reference_scan.py reads and tallies every span on its
own; both must give the same records, errors and summary, era-set order
included, cold and warm, below and past the memo bound. The tests that count
reads or serializations start from empty process memos.
"""

import gc
import importlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import hannum.cli
import hannum.scan
from hannum import Era, RenderOptions, Script, TwoStyle, render_integer
from hannum.cli import main
from hannum.core import era_profile
from hannum.scan import (
    _CORE_CHARS,
    _FINANCIAL_GRAPHS,
    _MEMO_CHARS,
    _MEMO_TEXTS,
    _SPAN,
    scan_text,
)

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
    "廿五", "二〇二六", "卅有一", "壹佰伍拾", "三拾有五", "拾", "陸", "參加",
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
        "伍拾萬元，人民幣貳萬叁仟元，三拾元，壹佰伍拾元",
        "他拾起三個，陸有五人，參加了二十人，三拾有五，拾有五，十有拾五",
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


def _cold_memos(monkeypatch):
    """Swap in empty process memos, as in a process that has scanned nothing."""
    monkeypatch.setattr(hannum.scan, "_READINGS", {})
    monkeypatch.setattr(hannum.cli, "_TAILS", {})


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
    _cold_memos(monkeypatch)
    texts, text = _ten_texts_repeated()
    calls = _count_tokenize(monkeypatch)
    records, _ = scan_text(text)
    assert len(records) == 30
    assert sorted(calls) == sorted(texts)


def test_past_the_memo_bound(monkeypatch):
    _cold_memos(monkeypatch)
    texts, text = _ten_texts_repeated()
    monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", 2)
    calls = _count_tokenize(monkeypatch)
    records, summary = _assert_same_scan(text)
    # The process keeps the first two accepted texts (十, 十一) and the call
    # the next two texts (十二 and the rejected 兩十); the other six are read
    # again at every occurrence, and the tallies still count every span.
    assert texts[:4] == ["十", "十一", "十二", "兩十"]
    assert list(hannum.scan._READINGS) == texts[:2]
    assert len(calls) == 4 + 6 * 3
    assert summary.expressions == 30
    assert sum(summary.era_sets.values()) == 30


def _json_lines(capsys, path):
    assert main(["scan", "--json", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("bound", [None, 2])
def test_json_lines_equal_as_dict(monkeypatch, capsys, tmp_path, bound):
    _cold_memos(monkeypatch)
    if bound is not None:
        monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", bound)
    texts, text = _ten_texts_repeated()
    text += "\n他有三隻貓，十有五又兩十"
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    records, summary = scan_text(text)
    expected = [json.dumps(r.as_dict(), ensure_ascii=False) for r in records]
    expected.append(json.dumps({"summary": summary.as_dict()}, ensure_ascii=False))

    serialized = []
    original = hannum.cli._reading_json

    def counted(rec):
        serialized.append(rec.text)
        return original(rec)

    monkeypatch.setattr(hannum.cli, "_reading_json", counted)
    assert _json_lines(capsys, path) == expected
    # Each distinct text is serialized once; past the bound, every text after
    # the first two is serialized at each occurrence.
    distinct = len(texts) + 2  # 三 and 十有五又兩十
    if bound is None:
        assert len(serialized) == distinct
    else:
        assert len(serialized) == 2 + len(records) - 3 * 2


def test_cold_then_warm_match_reference(monkeypatch):
    _cold_memos(monkeypatch)
    _, repeated = _ten_texts_repeated()
    texts = [repeated, "一百\n一百\n三千四，十十五", "兩十又十有五，百百"]
    for text in texts + texts:
        _assert_same_scan(text)


def test_second_call_reads_nothing(monkeypatch):
    _cold_memos(monkeypatch)
    texts, text = _ten_texts_repeated()
    first, _ = scan_text(text)
    calls = _count_tokenize(monkeypatch)
    second, _ = scan_text(text)
    # Every text is served from the process memo, the rejected ones too,
    # whose errors the call builds from their kept failures.
    rejected = {r.text for r in first if r.error is not None}
    assert rejected == {"兩十", "百百", "十十五"}
    assert calls == []
    for a, b in zip(first, second):
        assert a.outcome is b.outcome


def test_rejections_get_an_error_per_call(monkeypatch):
    _cold_memos(monkeypatch)
    (a, b), _ = scan_text("兩十，兩十")
    (c,), _ = scan_text("兩十")
    assert a.error is b.error
    assert c.error is not a.error
    assert "兩十" in hannum.scan._READINGS
    assert (c.error.kind, c.error.position, c.error.message, c.error.args) == (
        a.error.kind, a.error.position, a.error.message, a.error.args
    )
    assert c.as_dict() == a.as_dict()


def test_a_rejected_text_builds_one_error(monkeypatch):
    # On scan's path an error is built in scan_text alone, once per call for
    # each rejected text: reading the text keeps its failure, no error.
    _cold_memos(monkeypatch)
    built = []
    for module in (hannum.scan, importlib.import_module("hannum.parse")):
        original = module._error

        def counted(*args, original=original):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(module, "_error", counted)
    (a, b), _ = scan_text("兩十，兩十")
    assert built == [a.error]
    assert built[0] is a.error is b.error
    assert hannum.scan._READINGS["兩十"][1] == (
        a.error.kind, a.error.position, a.error.message
    )


@pytest.mark.parametrize("rejected", ["兩十", "二〇二六", "廿五"])
def test_a_raised_error_stays_with_its_call(monkeypatch, rejected):
    """Raising a memo-served rejection's error sets its traceback; the next
    call's error for that text is a new one, with no traceback."""
    _cold_memos(monkeypatch)
    scan_text(rejected)
    assert hannum.scan._READINGS[rejected][1] is not None
    calls = _count_tokenize(monkeypatch)
    (a, b), _ = scan_text(f"{rejected}，{rejected}")
    assert a.error is b.error
    with pytest.raises(type(a.error)):
        raise a.error
    assert a.error.__traceback__ is not None
    (c,), _ = scan_text(rejected)
    assert calls == []
    assert c.error is not a.error
    assert c.error.__traceback__ is None
    assert (c.error.kind, c.error.position, c.error.message, c.error.args) == (
        a.error.kind, a.error.position, a.error.message, a.error.args
    )


# Beyond the cap: one text that reads as a value and one that is rejected.
_LONG = ["九千有九百有九十有九億有九千有九百有九十有九萬有九千有九百有九十有九", "十" * 33]


@pytest.mark.parametrize("long", _LONG)
def test_long_spans_are_never_kept(monkeypatch, capsys, tmp_path, long):
    assert len(long) > _MEMO_CHARS
    _cold_memos(monkeypatch)
    calls = _count_tokenize(monkeypatch)
    text = f"{long}，十五，{long}"
    _assert_same_scan(text)
    _assert_same_scan(text)
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    _json_lines(capsys, path)
    # Once per call, never from the process memo.
    assert calls.count(long) == 3
    assert long not in hannum.scan._READINGS
    assert long not in hannum.cli._TAILS
    assert "十五" in hannum.scan._READINGS and "十五" in hannum.cli._TAILS


def test_memos_stop_at_the_bound(monkeypatch, capsys, tmp_path):
    _cold_memos(monkeypatch)
    monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", 3)
    texts, text = _ten_texts_repeated()
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    for _ in range(2):
        records, summary = _assert_same_scan(text)
        expected = [json.dumps(r.as_dict(), ensure_ascii=False) for r in records]
        expected.append(
            json.dumps({"summary": summary.as_dict()}, ensure_ascii=False)
        )
        assert _json_lines(capsys, path) == expected
    assert list(hannum.scan._READINGS) == texts[:3]
    assert list(hannum.cli._TAILS) == texts[:3]


_HAN_SCRIPTS = (Script.TRADITIONAL, Script.SIMPLIFIED)


def test_memo_chars_holds_every_rendering():
    """No era renders a value at its ceiling in more than _MEMO_CHARS
    characters, under any option set, in either Han script (a span is Han
    text). A name's length grows with
    its value's digits and junctions, and the ceiling is all nines, so the
    ceilings give the longest renderings."""
    lengths = []
    for era in Era:
        ceiling = era_profile(era).max_value
        for two in TwoStyle:
            for you in (None, False, True):
                for ten_one in (False, True):
                    opts = RenderOptions(
                        two_style=two, use_you=you, leading_ten_one=ten_one
                    )
                    try:
                        expr = render_integer(ceiling, era, opts)
                    except ValueError:  # a style the era does not have
                        continue
                    lengths += [len(expr.text(s)) for s in _HAN_SCRIPTS]
    assert max(lengths) == 23 <= _MEMO_CHARS


# Both memos full of the costliest texts: accepted spans of _MEMO_CHARS
# characters, whose outcomes hold a token per character (6.06 MB measured on
# CPython 3.11). A rejected text is kept as its failure, whose message its
# reader's table holds, and as a cli tail: 3.71 MB for 4,096 of that
# length.
_MEMO_BYTES = 8_000_000


def _full_texts():
    rng = random.Random(7)
    template = "{}千有{}百有{}十有{}億{}千有{}百有{}十有{}萬{}千有{}百有{}十有{}"
    texts = set()
    while len(texts) < _MEMO_TEXTS:
        texts.add(template.format(*(rng.choice("一二三四五六七八九") for _ in range(12))))
    return sorted(texts)


def _memo_growth(monkeypatch, capsys, tmp_path, texts):
    """Bytes that a scan --json run over texts, one span each, adds to the
    two memos, emptied before it; parse's own memos are filled first."""
    assert {len(t) for t in texts} == {_MEMO_CHARS}
    assert set("".join(texts)) <= _CORE_CHARS | {"有"}
    path = tmp_path / "doc.txt"
    path.write_text("，".join(texts), encoding="utf-8")
    # A first run fills parse's own memos, so that the measured one grows
    # only the two memos.
    _cold_memos(monkeypatch)
    _json_lines(capsys, path)
    _cold_memos(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lines = _json_lines(capsys, path)
        del lines
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hannum.scan._READINGS) == len(hannum.cli._TAILS) == _MEMO_TEXTS
    return grown


def test_full_memos_stay_under_their_byte_figure(monkeypatch, capsys, tmp_path):
    grown = _memo_growth(monkeypatch, capsys, tmp_path, _full_texts())
    assert all(r[1] is None for r in hannum.scan._READINGS.values())
    assert grown < _MEMO_BYTES


def _rejected_texts():
    """_MEMO_TEXTS texts of _MEMO_CHARS numeral characters that the lenient
    grammar rejects, in many positions and kinds."""
    rng = random.Random(11)
    graphs = "一二三四五六七八九十百千萬億兩零"
    texts = set()
    while len(texts) < _MEMO_TEXTS:
        texts.add("".join(rng.choice(graphs) for _ in range(_MEMO_CHARS)))
    return sorted(texts)


def test_memos_full_of_rejections_stay_under_the_byte_figure(
    monkeypatch, capsys, tmp_path
):
    grown = _memo_growth(monkeypatch, capsys, tmp_path, _rejected_texts())
    assert all(r[1] is not None for r in hannum.scan._READINGS.values())
    assert grown < _MEMO_BYTES


_edge_text = st.lists(
    st.one_of(
        st.sampled_from(["有", "又", "十", "五", "萬", "零", "兩", "\n", "a"]),
        st.sampled_from(_FINANCIAL_GRAPHS),
        st.text(max_size=4),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), _edge_text))
def test_span_regex_matches_character_loop(text):
    assert [m.span() for m in _SPAN.finditer(text)] == reference_scan._spans(text)
