"""Corpus scanning: find numeral spans in running text and tally them.

A span is a maximal run of numeral-inventory characters. The yòu graphs
(有/又) double as everyday prose words, so they join a span only when both
neighbors are unconditional numeral characters: precision over recall.
A span is read in one walk over all nine grammars (the eight eras and the
lenient one), which gives its lenient value or error, the eras it is
consistent with and its features; the summary reports feature and era-set
tallies. The reading depends only on the span text, so one scan_text call
tokenizes and reads each distinct text once and reuses the result for every
repeat. That memo holds at most _MEMO_TEXTS texts: once it is full, new texts
are read every time they occur, so memory stays bounded on any input. What a
reading shares with readings of other texts is built once per process:
_read_span takes its era tuple from a table indexed by the mask of
accepting lanes, and _read keeps each tuple's era-set key in _ERA_SETS.
Seven lanes allow 2**7 masks, so _ERA_SETS is bounded by construction.
_read_span reads the walk's masks and features itself, one frame below
_read, and builds a diagnostics tuple only for a span that has any.

scan_text builds its records through core's positional builder, which stores
their fields with plain slot stores on a same-layout twin and then sets their
class; the public ScanRecord constructor stays the dataclass one, so a
caller that builds, copies or replaces a record sees no change.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from .core import MORPHEMES, YOU, Era, _builder
from .parse import (
    NumeralParseError,
    ParseOutcome,
    ScriptHint,
    _error_dict,
    _read_span,
    tokenize,
)

# Unused here; a traced run of bench/spans.py wraps both by these names.
from .chronolect import classify  # noqa: F401
from .parse import parse  # noqa: F401

__all__ = ["ScanRecord", "ScanSummary", "scan_text", "summary_csv_rows"]

# Characters that always belong to a numeral span.
_CORE_CHARS = frozenset(g for m in MORPHEMES if m is not YOU for g in m.graphs)
# Junction graphs admitted only between core numeral characters.
_CONDITIONAL_CHARS = frozenset(YOU.graphs)
# A maximal numeral run: core characters, with at most one junction graph
# between two of them.
_SPAN = re.compile(
    "[{core}](?:[{cond}]?[{core}])*".format(
        core=re.escape("".join(sorted(_CORE_CHARS))),
        cond=re.escape("".join(sorted(_CONDITIONAL_CHARS))),
    )
)
# Distinct span texts remembered per scan_text call (and per `hannum scan
# --json` run, for serialized records).
_MEMO_TEXTS = 4096


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One numeral span located in the input stream.

    byte_offset is the span start in the UTF-8 byte stream; line and column
    are 1-based, with column counted in characters. Exactly one of outcome
    and error is set. Records of one scan_text call with equal text share the
    same outcome or error object: ParseOutcome is frozen, and an error should
    be treated as read-only too (raising it sets its traceback for every
    record that holds it).
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
        return {
            "byte_offset": self.byte_offset,
            "line": self.line,
            "column": self.column,
            **self.reading_dict(),
        }

    def reading_dict(self) -> dict[str, object]:
        """The as_dict fields after column; they depend only on the text."""
        base: dict[str, object] = {
            "text": self.text,
            "consistent_eras": [e.value for e in self.consistent_eras],
        }
        if self.outcome is not None:
            base["status"] = "ok"
            base["value"] = self.outcome.value
            base["features"] = self.outcome.features.as_dict()
            base["diagnostics"] = list(self.outcome.diagnostics)
        else:
            assert self.error is not None
            base["status"] = "error"
            base["error"] = _error_dict(self.error)
        return base


# scan_text builds its records through this positional constructor, which
# takes the fields in the order above.
_record = _builder(ScanRecord)


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
        d: dict[str, object] = {key: getattr(self, key) for key in _COUNTS}
        d["era_sets"] = dict(sorted(self.era_sets.items()))
        return d


# The summary's counts, in output order: every field but era_sets.
_COUNTS = tuple(f.name for f in fields(ScanSummary) if f.name != "era_sets")


def _spans(text: str) -> list[tuple[int, int]]:
    """Maximal numeral runs as (start, end) character indexes."""
    return [m.span() for m in _SPAN.finditer(text)]


# The era-set key of each consistent-era tuple, filled by _read on first
# sight. _read_span takes its tuples from parse's table of 2**7 lane masks,
# so this holds at most that many.
_ERA_SETS: dict[tuple[Era, ...], str] = {}
# Read once, as parse._HAN_HINT is: a member read per call costs more.
_HAN = ScriptHint.HAN


_Signature = tuple[bool, bool, bool, bool, bool, str]
_Reading = tuple[
    ParseOutcome | None, NumeralParseError | None, tuple[Era, ...], _Signature
]


def _read(chunk: str) -> _Reading:
    """A span text's outcome, error and consistent eras, and its signature.

    The signature is what the summary counts of a span: (parsed, with yòu,
    with líng, with liǎng, elliptic, era-set key).
    """
    # A span holds only Han inventory graphs, so it always tokenizes.
    outcome, error, consistent, feats = _read_span(tokenize(chunk, _HAN))
    key = _ERA_SETS.get(consistent)
    if key is None:
        key = "+".join(e.value for e in consistent) if consistent else "none"
        _ERA_SETS[consistent] = key
    signature = (
        outcome is not None,
        feats.uses_you,
        feats.uses_ling,
        feats.liang_present,
        feats.elliptic,
        key,
    )
    return outcome, error, consistent, signature


def scan_text(text: str) -> tuple[list[ScanRecord], ScanSummary]:
    """Locate, parse, and classify every numeral span in text."""
    records: list[ScanRecord] = []
    readings: dict[str, _Reading] = {}
    # Spans per signature, in order of first occurrence. Counting spans, not
    # memo entries, keeps the tallies exact once the memo is full.
    counts: dict[_Signature, int] = {}

    # Each span start's byte offset, line and column, counted over the slice
    # since the previous span start; text after the last span is never read.
    # A lone surrogate counts as the 3 bytes surrogatepass writes for it.
    byte_pos = 0
    line = 1
    line_start = 0
    prev = 0
    for match in _SPAN.finditer(text):
        start = match.start()
        piece = text[prev:start]
        newlines = piece.count("\n")
        if newlines:
            line += newlines
            line_start = prev + piece.rfind("\n") + 1
        byte_pos += len(piece.encode("utf-8", "surrogatepass"))
        prev = start

        chunk = match.group()
        reading = readings.get(chunk)
        if reading is None:
            reading = _read(chunk)
            if len(readings) < _MEMO_TEXTS:
                readings[chunk] = reading
        outcome, error, consistent, signature = reading
        column = start - line_start + 1
        records.append(
            _record(byte_pos, line, column, chunk, outcome, error, consistent)
        )
        counts[signature] = counts.get(signature, 0) + 1

    return records, _summary(counts)


def _summary(counts: dict[_Signature, int]) -> ScanSummary:
    tally = dict.fromkeys(_COUNTS, 0)
    # Signatures come in order of first occurrence, so era-set keys do too.
    era_sets: dict[str, int] = {}
    for (ok, you, ling, liang, elliptic, key), n in counts.items():
        tally["expressions"] += n
        tally["parsed" if ok else "errors"] += n
        tally["with_you" if you else "without_you"] += n
        if ling:
            tally["with_ling"] += n
        if liang:
            tally["with_liang"] += n
        if elliptic:
            tally["elliptic"] += n
        era_sets[key] = era_sets.get(key, 0) + n
    return ScanSummary(era_sets=era_sets, **tally)


def summary_csv_rows(summary: ScanSummary) -> list[tuple[str, str]]:
    """Flatten a summary to (key, count) rows for CSV output."""
    d = summary.as_dict()
    rows = [(key, str(d[key])) for key in _COUNTS]
    for name, count in d["era_sets"].items():  # type: ignore[union-attr]
        rows.append((f"era_set:{name}", str(count)))
    return rows
