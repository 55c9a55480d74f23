"""Span byte offsets, lines and columns against a per-character walk.

The scanner counts each span start's position over the slice since the
previous span start. The reference below walks every character, encoding
each one with surrogatepass, so a lone surrogate counts as 3 bytes.
"""

from hypothesis import given, settings, strategies as st

from hannum import scan_text
from hannum.scan import _SPAN


def reference_positions(text):
    """(byte offset, line, column) of every character index, and the end."""
    positions = []
    byte_pos, line, col = 0, 1, 1
    for ch in text:
        positions.append((byte_pos, line, col))
        byte_pos += len(ch.encode("utf-8", "surrogatepass"))
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    positions.append((byte_pos, line, col))
    return positions


def _assert_positions(text):
    records, _ = scan_text(text)
    where = reference_positions(text)
    spans = [m.span() for m in _SPAN.finditer(text)]
    assert len(records) == len(spans)
    for record, (start, end) in zip(records, spans):
        assert record.text == text[start:end]
        assert (record.byte_offset, record.line, record.column) == where[start]


_pieces = st.sampled_from(
    ["十", "五", "一百零五", "兩千", "有", "\n", "\r\n", "\n\n", "a", " ",
     "山水", "é", "€", "😀", "\ud800", "\udfff", "\u2028"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_pieces, st.text(max_size=3)), max_size=20).map("".join))
def test_positions_match_per_character_walk(text):
    _assert_positions(text)


def test_lone_surrogate_after_last_span():
    records, summary = scan_text("十五\n\ud800")
    assert [(r.byte_offset, r.line, r.column, r.text) for r in records] == [
        (0, 1, 1, "十五")
    ]
    assert summary.expressions == 1


def test_lone_surrogate_before_span_counts_three_bytes():
    records, _ = scan_text("\ud800十")
    assert [(r.byte_offset, r.line, r.column) for r in records] == [(3, 1, 2)]


def test_multibyte_and_newlines():
    text = "山😀\n\n一百零五 é\n又三"
    _assert_positions(text)
    records, _ = scan_text(text)
    assert [(r.byte_offset, r.line, r.column) for r in records] == [
        (9, 3, 1), (28, 4, 2)
    ]
