"""`hannum scan --json` against json.dumps of every record, and its tables.

The CLI writes a record's fields after "column" with cli._reading_json, from
fragments shared by every record: the JSON era list of each consistent-era
tuple (one per lane mask) and the JSON of each Features pattern; scan_text
takes each span's era tuple and era-set key from tables too. Every line must
still equal json.dumps(record.as_dict()), below and past the memo bound, and
every table must hold what the code it replaces computed.
"""

import importlib
import importlib.util
import json
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hannum.cli
import hannum.scan
from hannum.cli import main
from hannum.scan import ScanRecord, ScanSummary, scan_text

# The module, not the function that hannum exports by the same name.
P = importlib.import_module("hannum.parse")


def _expected_output(text):
    records, summary = scan_text(text)
    lines = [json.dumps(r.as_dict(), ensure_ascii=False) for r in records]
    summary_line = {"summary": summary.as_dict()}
    lines.append(json.dumps(summary_line, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def _scan_json_output(capsys, path, text):
    path.write_text(text, encoding="utf-8", newline="")
    assert main(["scan", "--json", str(path)]) == 0
    return capsys.readouterr().out


def _set_bound(monkeypatch, bound):
    # Empty process memos, so that the bound applies from the first span
    # whatever earlier tests left in them.
    monkeypatch.setattr(hannum.scan, "_READINGS", {})
    monkeypatch.setattr(hannum.cli, "_TAILS", {})
    if bound is not None:
        monkeypatch.setattr(hannum.scan, "_MEMO_TEXTS", bound)


# Well-formed, malformed and elliptic spans (一萬五 and 一百五 carry an
# AmbiguousElliptic diagnostic), 有/又 junctions, simplified graphs, filler.
_SPANS = [
    "十五", "一百零五", "三千四", "兩千", "十有五", "二十又三", "一萬五",
    "一百五", "百五", "萬一", "一億零五", "一万五", "两万五千", "一亿零五",
    "单五", "十十五", "兩十", "百百", "零", "單", "另", "十又", "有十",
    "廿五", "二〇二六", "卅有一",
]
_FILLER = ["有", "又", "人", "，", "\n", "\r\n", " ", "a", "山水", "😀", '"', "\\"]
_texts = st.lists(
    st.one_of(
        st.sampled_from(_SPANS + _FILLER),
        st.text(alphabet="一二三五十百千萬億零兩两万亿有又單单另", max_size=6),
    ),
    max_size=40,
).map("".join)


@pytest.mark.parametrize("bound", [None, 2])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_texts)
def test_scan_json_equals_as_dict(monkeypatch, capsys, tmp_path, bound, text):
    _set_bound(monkeypatch, bound)
    out = _scan_json_output(capsys, tmp_path / "doc.txt", text)
    assert out == _expected_output(text)


@pytest.mark.parametrize("bound", [None, 2])
def test_synthetic_corpus_json_equals_as_dict(
    monkeypatch, capsys, tmp_path, bound
):
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    spec = importlib.util.spec_from_file_location(
        "synthetic_corpus", scripts / "synthetic_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text, _ = module.build_corpus(seed=7)
    _set_bound(monkeypatch, bound)
    out = _scan_json_output(capsys, tmp_path / "corpus.txt", text)
    assert out == _expected_output(text)


def _tail_matches(rec):
    expected = json.dumps(rec.reading_dict(), ensure_ascii=False)[1:]
    assert hannum.cli._reading_json(rec) == expected


# Characters that JSON escapes, or that json.dumps with ensure_ascii=False
# writes as they are although other encoders escape them.
_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\u2028", "\U0001f600",
            'a "b" \\ c\n\td\x00\u2028\U0001f600']


def test_error_records_of_spans():
    records, _ = scan_text("，".join(_SPANS))
    errors = [rec for rec in records if rec.error is not None]
    assert len(errors) > 5
    for rec in errors:
        _tail_matches(rec)


@pytest.mark.parametrize("odd", _AWKWARD)
def test_error_message_escaped(odd):
    rec = scan_text("十十五")[0][0]
    assert rec.error is not None
    for message in (odd, f"x{odd}y", f"{odd}{odd}"):
        error = P.NumeralParseError(rec.error.kind, rec.error.position, message)
        _tail_matches(replace(rec, error=error))


@pytest.mark.parametrize("odd", _AWKWARD)
def test_diagnostics_escaped(odd):
    rec = scan_text("一萬五")[0][0]
    assert rec.outcome is not None and rec.outcome.diagnostics
    for notes in ((odd,), (f"x{odd}y", rec.outcome.diagnostics[0]), (odd, odd)):
        _tail_matches(replace(rec, outcome=replace(rec.outcome, diagnostics=notes)))


def test_era_tuple_per_lane_mask():
    fan_out = P._FAN_OUT
    table = P._CONSISTENT
    assert len(table) == 128 == 1 << len(P._LANE_KEYS)
    assert P._ALL_LANES.all == 127
    outcome = scan_text("十五")[0][0].outcome
    for mask in range(128):
        eras = tuple(era for era, bit, _ in fan_out if mask & bit)
        assert table[mask] == eras
        _tail_matches(ScanRecord(0, 1, 1, "十五", outcome, None, eras))
        assert hannum.cli._ERAS_JSON[eras] == json.dumps([e.value for e in eras])
    assert len(hannum.cli._ERAS_JSON) <= 128


def test_features_fragment_per_pattern():
    outcome = scan_text("十五")[0][0].outcome
    assert len(P._FEATURES) == 128
    for f in P._FEATURES:
        _tail_matches(
            ScanRecord(0, 1, 1, "十五", replace(outcome, features=f), None, ())
        )
        assert hannum.cli._FEATURES_JSON[f] == json.dumps(f.as_dict())
    assert len(hannum.cli._FEATURES_JSON) == 128


def test_era_set_keys():
    scan_text("十五，十有五，兩千，百百，一萬五，二十又三，萬一，零")
    assert hannum.scan._ERA_SETS
    for eras, key in hannum.scan._ERA_SETS.items():
        assert eras in P._CONSISTENT
        assert key == ("+".join(e.value for e in eras) if eras else "none")


def test_span_graphs_encode_as_themselves():
    # _reading_json writes a span's text without escaping it.
    for graph in (
        hannum.scan._CORE_CHARS | hannum.scan._CONDITIONAL_CHARS
        | set(hannum.scan._FINANCIAL_GRAPHS)
    ):
        assert json.dumps(graph, ensure_ascii=False) == f'"{graph}"'


# An empty document, one without a numeral, and one whose era-set keys come
# in an order that is not sorted, with every count non-zero and most of them
# distinct.
_OUT_OF_ORDER = "兩千，十五，十有五，百百，一萬五，零，十五，一百五，兩千，二十又三"


@pytest.mark.parametrize("text", ["", "山水之間，人。", _OUT_OF_ORDER])
def test_summary_line(capsys, tmp_path, text):
    _, summary = scan_text(text)
    last = _scan_json_output(capsys, tmp_path / "doc.txt", text).splitlines()[-1]
    assert last == json.dumps({"summary": summary.as_dict()}, ensure_ascii=False)
    if not text:
        assert last.endswith('"era_sets": {}}}')


def test_summary_era_sets_arrive_unsorted():
    _, summary = scan_text(_OUT_OF_ORDER)
    keys = list(summary.era_sets)
    assert len(keys) > 2 and keys != sorted(keys)
    assert all(getattr(summary, key) for key in hannum.scan._COUNTS)


@pytest.mark.parametrize("text", ["", "山水之間，人。", _OUT_OF_ORDER])
def test_summary_equals_dataclass_built(text):
    # _summary builds through core's positional builder; the result must be
    # the summary the dataclass constructor builds from the same values.
    _, summary = scan_text(text)
    fields = {f.name: getattr(summary, f.name) for f in dataclass_fields(summary)}
    built = ScanSummary(**fields)
    assert summary == built and type(summary) is ScanSummary
    assert summary.as_dict() == built.as_dict()
    assert type(summary.era_sets) is dict
