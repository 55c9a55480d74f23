"""Corpus scanning: find numeral spans in running text and tally them.

A span is a maximal run of numeral-inventory characters. The yòu graphs
(有/又) double as everyday prose words, so they join a span only between
two of its graphs: precision over recall. For the same reason four
numeral graphs outside the morpheme table, 〇 and the ligatures 廿 卅 卌,
join a span unconditionally: a span that holds one is a single
UnknownCharacter error with no consistent era and no feature, where
cutting the span at the graph would read a fragment of the numeral as a
clean value (廿五 as 5). The financial forms (壹 拾 佰 ...) make a span an
error the same way, so 三拾元 is no clean 3; but several of them are also
prose words (他拾起), so one joins a span only where it touches another
span graph, and a lone one is prose. A yòu graph before a financial form
joins only where that form touches a span graph after it.
A span is read in one walk of seven lanes: the eight eras, the three
early ones sharing a grammar and so a lane, and the lenient grammar. It
gives the span's lenient value or failure, the eras it is consistent with
and its features; the summary reports feature and era-set tallies. The
reading depends only on the span text, so it is kept for the life of the
process, a rejected text's as well as an accepted one's:
_READINGS maps the text to its reading, and scan_text tokenizes and reads a
text only the first time any call meets it, which pays off where one
process scans many documents (`hannum scan` with several paths, or a
library caller). _keeps is the one bound on what the process keeps, here
and in cli: at most _MEMO_TEXTS texts of at most _MEMO_CHARS characters
each, so the memory is bounded in bytes as well as in entries; _MEMO_CHARS
covers every rendering of every era (the longest, song-qin
999,999,999,999, has 23 characters). A text that _READINGS does not hold
is read once per scan_text call, through a per-call memo of at most
_MEMO_TEXTS texts; past that, at each occurrence.
An outcome is frozen, so records of any calls share a kept text's. A
rejection is kept as its failure, (kind, position, message), never as an
error object, since raising an error sets its traceback. _read_span hands
that failure over as the walk read it, with no error built on the way, so
a record's error is built in scan_text alone: one per rejected text a call
(for at most _MEMO_TEXTS texts; past that, one per occurrence), which the
records of that call share. A span that does not tokenize (a graph outside
the morpheme table) keeps the fields of the tokenizer's error.
What a reading shares with readings of other texts is built once per
process: _read_span takes its era tuple from a table indexed by the mask
of accepting lanes, and _read keeps each tuple's era-set key in
_ERA_SETS. Seven lanes allow 2**7 masks, so _ERA_SETS is bounded by
construction.
_read_span reads the walk's masks and features itself, one frame below
_read, and builds a diagnostics tuple only for a span that has any.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .core import MORPHEMES, YOU, Era, _builder
from .parse import (
    Features,
    NumeralParseError,
    ParseOutcome,
    ScriptHint,
    _Failure,
    _error,
    _error_dict,
    _read_span,
    tokenize,
)

# Unused here; a traced run of bench/spans.py wraps both by these names.
from .chronolect import classify  # noqa: F401
from .parse import parse  # noqa: F401

__all__ = ["ScanRecord", "ScanSummary", "scan_text", "summary_csv_rows"]

# Characters that always belong to a numeral span: the graphs of the
# morpheme table but yòu's, and four numeral graphs it lacks, none of them
# a common prose word: 〇, the zero of digit-by-digit years, and the
# ligatures 廿 卅 卌 (20, 30, 40). A span that holds one of the four is one
# UnknownCharacter error, so no fragment of such a numeral is read.
_UNREAD_GRAPHS = "〇廿卅卌"
_CORE_CHARS = frozenset(
    g for m in MORPHEMES if m is not YOU for g in m.graphs
).union(_UNREAD_GRAPHS)
# The financial forms, one graph for each digit and inner pivot of the
# table. Several are also prose words (拾 "pick up", 陸 "land", 參 "take
# part"), so one joins a span only where it touches another span graph, a
# core character or another financial form; a lone one starts no span. A
# span that holds one is one UnknownCharacter error too, so no fragment of
# a financial numeral is read as a clean value.
_FINANCIAL_GRAPHS = "壹貳贰參叁肆伍陸陆柒捌玖拾佰仟"
# Junction graphs, admitted only between two graphs of a span: after one,
# and before a core character or a financial form that touches a span
# graph after it.
_CONDITIONAL_CHARS = frozenset(YOU.graphs)
# A maximal numeral run. It opens with a core character, or a financial
# form before another span graph; the pattern opens with one character
# class, so the search skips prose by that class alone. Runs of span graphs
# are each one repeat of one class, which reads faster than a repeat of an
# alternation.
_SPAN = re.compile(
    "[{span}](?:(?<=[{core}])|(?=[{span}]))[{span}]*"
    "(?:[{cond}](?:[{core}]|[{fin}](?=[{span}]))[{span}]*)*".format(
        span=re.escape("".join(sorted(_CORE_CHARS.union(_FINANCIAL_GRAPHS)))),
        core=re.escape("".join(sorted(_CORE_CHARS))),
        cond=re.escape("".join(sorted(_CONDITIONAL_CHARS))),
        fin=re.escape(_FINANCIAL_GRAPHS),
    )
)
# Distinct span texts kept for the life of the process (readings here, and
# serialized records of `hannum scan --json` in cli), and remembered per
# scan_text call besides.
_MEMO_TEXTS = 4096
# The longest span text kept for the life of the process. Every era's
# rendering of every value fits (see the module docstring).
_MEMO_CHARS = 32


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One numeral span located in the input stream.

    byte_offset is the span start in the UTF-8 byte stream; line and column
    are 1-based, with column counted in characters. Exactly one of outcome
    and error is set. Records of one scan_text call with equal text share
    the same outcome or error object. An outcome is frozen, so records of
    two calls share it too when the process keeps the text (see _keeps); an
    error is never shared between calls. Treat an error as read-only too:
    raising it sets its traceback for every record of its call that holds
    it.
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
# _summary builds its summary through this positional constructor, which
# takes the fields in the order above.
_summary_of = _builder(ScanSummary)


# The era-set key of each consistent-era tuple, filled by _read on first
# sight. _read_span takes its tuples from parse's table of 2**7 lane masks,
# so this holds at most that many.
_ERA_SETS: dict[tuple[Era, ...], str] = {}
# Read once, as parse._HAN_HINT is: a member read per call costs more.
_HAN = ScriptHint.HAN
# The features of a span that does not tokenize: no flag is set.
_NO_FEATURES = Features()


_Signature = tuple[bool, bool, bool, bool, bool, str]
# A rejection is kept as its failure, (kind, position, message), from which
# each scan_text call builds its own error.
_Reading = tuple[
    ParseOutcome | None, _Failure | None, tuple[Era, ...], _Signature, int
]


def _read(chunk: str) -> _Reading:
    """A span text's outcome or failure, its consistent eras, its signature
    and its length in UTF-8 bytes.

    The signature is what the summary counts of a span: (parsed, with yòu,
    with líng, with liǎng, elliptic, era-set key).
    """
    try:
        tokens = tokenize(chunk, _HAN)
    except NumeralParseError as exc:  # a graph of _UNREAD_GRAPHS
        outcome, consistent, feats = None, (), _NO_FEATURES
        failure: _Failure | None = exc.kind, exc.position, exc.message
    else:
        outcome, failure, consistent, feats = _read_span(tokens)
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
    # A span holds numeral graphs only, so no surrogate.
    return outcome, failure, consistent, signature, len(chunk.encode("utf-8"))


# The reading of each span text met so far, for every scan_text call, as
# far as _keeps allows.
_READINGS: dict[str, _Reading] = {}


def _keeps(memo: Mapping[str, object], text: str) -> bool:
    """Whether a process-wide memo of span texts may keep one more: at most
    _MEMO_TEXTS texts of at most _MEMO_CHARS characters."""
    return len(text) <= _MEMO_CHARS and len(memo) < _MEMO_TEXTS


def scan_text(text: str) -> tuple[list[ScanRecord], ScanSummary]:
    """Locate, parse, and classify every numeral span in text.

    A text that is not a str raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"scan_text expects text as a str, not {type(text).__name__}")
    records: list[ScanRecord] = []
    # This call's readings of the texts _READINGS does not hold.
    readings: dict[str, _Reading] = {}
    # This call's error for each rejected text, shared by its records.
    errors: dict[str, NumeralParseError] = {}
    # Each span's signature: counting spans, not memo entries, keeps the
    # tallies exact once the memos are full.
    signatures: list[_Signature] = []

    # Each span start's byte offset, line and column, counted over the gap
    # since the previous span's end, whose byte length its reading holds;
    # text after the last span is never read. A lone surrogate counts as the
    # 3 bytes surrogatepass writes for it.
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

        chunk = match.group()
        reading = _READINGS.get(chunk) or readings.get(chunk)
        if reading is None:
            reading = _read(chunk)
            if _keeps(_READINGS, chunk):
                _READINGS[chunk] = reading
            elif len(readings) < _MEMO_TEXTS:
                readings[chunk] = reading
        outcome, failure, consistent, signature, size = reading
        if failure is None:
            error = None
        else:
            error = errors.get(chunk)
            if error is None:
                error = _error(*failure)
                if len(errors) < _MEMO_TEXTS:
                    errors[chunk] = error
        column = start - line_start + 1
        records.append(
            _record(byte_pos, line, column, chunk, outcome, error, consistent)
        )
        signatures.append(signature)
        byte_pos += size
        prev = start + len(chunk)

    # A Counter keeps its keys in order of first occurrence.
    return records, _summary(Counter(signatures))


def _summary(counts: Counter[_Signature]) -> ScanSummary:
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
    # tally holds the counts in field order, so they go in as they stand.
    return _summary_of(*tally.values(), era_sets)


def summary_csv_rows(summary: ScanSummary) -> list[tuple[str, str]]:
    """Flatten a summary to (key, count) rows for CSV output."""
    d = summary.as_dict()
    rows = [(key, str(d[key])) for key in _COUNTS]
    for name, count in d["era_sets"].items():  # type: ignore[union-attr]
        rows.append((f"era_set:{name}", str(count)))
    return rows
