"""Corpus scanning: find numeral spans in running text and tally them.

A span is a maximal run of numeral-inventory characters. The yòu graphs
(有/又) double as everyday prose words, so they join a span only when both
neighbors are unconditional numeral characters: precision over recall.
Every span is tokenized once, parsed with the lenient grammar and classified
for era consistency; the summary reports feature and era-set tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chronolect import classify
from .core import MORPHEMES, YOU, Era
from .parse import NumeralParseError, ParseOutcome, ScriptHint, parse, tokenize

__all__ = ["ScanRecord", "ScanSummary", "scan_text", "summary_csv_rows"]

# Characters that always belong to a numeral span.
_CORE_CHARS = frozenset(g for m in MORPHEMES if m is not YOU for g in m.graphs)
# Junction graphs admitted only between core numeral characters.
_CONDITIONAL_CHARS = frozenset(YOU.graphs)


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One numeral span located in the input stream.

    byte_offset is the span start in the UTF-8 byte stream; line and column
    are 1-based, with column counted in characters. Exactly one of outcome
    and error is set.
    """

    byte_offset: int
    line: int
    column: int
    text: str
    outcome: ParseOutcome | None
    error: NumeralParseError | None
    consistent_eras: tuple[Era, ...]

    @property
    def ok(self) -> bool:
        return self.outcome is not None

    def as_dict(self) -> dict[str, object]:
        base: dict[str, object] = {
            "byte_offset": self.byte_offset,
            "line": self.line,
            "column": self.column,
            "text": self.text,
            "consistent_eras": [e.value for e in self.consistent_eras],
        }
        if self.outcome is not None:
            base["status"] = "ok"
            base["value"] = self.outcome.value
            base["features"] = self.outcome.features.as_dict()
            base["diagnostics"] = list(self.outcome.diagnostics)
        else:
            err = self.error
            assert err is not None
            base["status"] = "error"
            base["error"] = {
                "kind": err.kind.value,
                "position": err.position,
                "message": err.message,
            }
        return base


@dataclass(frozen=True, slots=True)
class ScanSummary:
    """End-of-run tallies over every span found."""

    expressions: int = 0
    parsed: int = 0
    errors: int = 0
    with_you: int = 0
    without_you: int = 0
    with_ling: int = 0
    with_liang: int = 0
    elliptic: int = 0
    era_sets: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "expressions": self.expressions,
            "parsed": self.parsed,
            "errors": self.errors,
            "with_you": self.with_you,
            "without_you": self.without_you,
            "with_ling": self.with_ling,
            "with_liang": self.with_liang,
            "elliptic": self.elliptic,
            "era_sets": dict(sorted(self.era_sets.items())),
        }


def _spans(text: str) -> list[tuple[int, int]]:
    """Maximal numeral runs as (start, end) character indexes."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    i = 0
    while i < n:
        if text[i] not in _CORE_CHARS:
            i += 1
            continue
        start = i
        j = i + 1
        while j < n:
            c = text[j]
            if c in _CORE_CHARS:
                j += 1
                continue
            if (
                c in _CONDITIONAL_CHARS
                and text[j - 1] in _CORE_CHARS
                and j + 1 < n
                and text[j + 1] in _CORE_CHARS
            ):
                j += 1
                continue
            break
        spans.append((start, j))
        i = j
    return spans


def scan_text(text: str) -> tuple[list[ScanRecord], ScanSummary]:
    """Locate, parse, and classify every numeral span in text."""
    spans = _spans(text)
    records: list[ScanRecord] = []

    # Each span start's byte offset, line and column, counted over the slice
    # since the previous span start; text after the last span is never read.
    # A lone surrogate counts as the 3 bytes surrogatepass writes for it.
    positions: list[tuple[int, int, int]] = []
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
    era_sets: dict[str, int] = {}

    for (start, end), (boff, ln, cl) in zip(spans, positions):
        chunk = text[start:end]
        # A span holds only Han inventory graphs, so it always tokenizes, and
        # classify never raises on its tokens.
        toks = tokenize(chunk, ScriptHint.HAN)
        outcome: ParseOutcome | None = None
        error: NumeralParseError | None = None
        try:
            outcome = parse(toks, None)
        except NumeralParseError as exc:
            error = exc
        report = classify(toks)
        consistent = report.consistent
        feats = report.features

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

    summary = ScanSummary(era_sets=era_sets, **tally)
    return records, summary


def summary_csv_rows(summary: ScanSummary) -> list[tuple[str, str]]:
    """Flatten a summary to (key, count) rows for CSV output."""
    d = summary.as_dict()
    rows: list[tuple[str, str]] = []
    for key in (
        "expressions",
        "parsed",
        "errors",
        "with_you",
        "without_you",
        "with_ling",
        "with_liang",
        "elliptic",
    ):
        rows.append((key, str(d[key])))
    for name, count in d["era_sets"].items():  # type: ignore[union-attr]
        rows.append((f"era_set:{name}", str(count)))
    return rows
