"""The scanner read span by span, kept as a reference for hannum.scan.

`_spans` walks the text one character at a time; `scan_text` tokenizes and
reads every span with parse._read_span, even when its text was seen before,
builds a rejected span's error from its failure with the public constructor,
and tallies each span as it goes. hannum.scan must give the same records and
the same summary, era-set order included.
"""

from hannum.parse import Features, NumeralParseError, ScriptHint, _read_span, tokenize
from hannum.scan import (
    _CONDITIONAL_CHARS,
    _CORE_CHARS,
    _FINANCIAL_GRAPHS,
    ScanRecord,
    ScanSummary,
)

# Every graph that a span may hold but the junction graphs.
_SPAN_GRAPHS = _CORE_CHARS | set(_FINANCIAL_GRAPHS)


def _spans(text):
    """Maximal numeral runs as (start, end) character indexes. A financial
    form joins a span only where it touches another span graph, and a
    junction graph only between two graphs of the span."""
    spans = []
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        if not (
            c in _CORE_CHARS
            or c in _FINANCIAL_GRAPHS and i + 1 < n and text[i + 1] in _SPAN_GRAPHS
        ):
            i += 1
            continue
        start = i
        j = i + 1
        while j < n:
            c = text[j]
            if c in _SPAN_GRAPHS:
                j += 1
                continue
            if (
                c in _CONDITIONAL_CHARS
                and text[j - 1] in _SPAN_GRAPHS
                and j + 1 < n
                and (
                    text[j + 1] in _CORE_CHARS
                    or text[j + 1] in _FINANCIAL_GRAPHS
                    and j + 2 < n
                    and text[j + 2] in _SPAN_GRAPHS
                )
            ):
                j += 1
                continue
            break
        spans.append((start, j))
        i = j
    return spans


def scan_text(text):
    """Locate, parse, and classify every numeral span in text, one by one."""
    spans = _spans(text)
    records = []

    positions = []
    byte_pos = 0
    line = 1
    line_start = 0
    prev = 0
    for start, _ in spans:
        piece = text[prev:start]
        newlines = piece.count("\n")
        if newlines:
            line += newlines
            line_start = prev + piece.rfind("\n") + 1
        byte_pos += len(piece.encode("utf-8", "surrogatepass"))
        positions.append((byte_pos, line, start - line_start + 1))
        prev = start

    tally = {
        "expressions": 0,
        "parsed": 0,
        "errors": 0,
        "with_you": 0,
        "without_you": 0,
        "with_ling": 0,
        "with_liang": 0,
        "elliptic": 0,
    }
    era_sets = {}

    for (start, end), (boff, ln, cl) in zip(spans, positions):
        chunk = text[start:end]
        try:
            tokens = tokenize(chunk, ScriptHint.HAN)
        except NumeralParseError as exc:
            # A graph outside the morpheme table: the whole span is one
            # error, with no consistent era and no feature.
            outcome, error, consistent, feats = None, exc, (), Features()
        else:
            outcome, failure, consistent, feats = _read_span(tokens)
            error = failure and NumeralParseError(*failure)

        records.append(
            ScanRecord(
                byte_offset=boff,
                line=ln,
                column=cl,
                text=chunk,
                outcome=outcome,
                error=error,
                consistent_eras=consistent,
            )
        )

        tally["expressions"] += 1
        if outcome is not None:
            tally["parsed"] += 1
        else:
            tally["errors"] += 1
        if feats.uses_you:
            tally["with_you"] += 1
        else:
            tally["without_you"] += 1
        if feats.uses_ling:
            tally["with_ling"] += 1
        if feats.liang_present:
            tally["with_liang"] += 1
        if feats.elliptic:
            tally["elliptic"] += 1
        key = "+".join(e.value for e in consistent) if consistent else "none"
        era_sets[key] = era_sets.get(key, 0) + 1

    return records, ScanSummary(era_sets=era_sets, **tally)
