"""Era consistency analysis for Han numeral expressions.

Every era grammar reads the same token sequence; the report records which
grammars accept it, the value each one reads, and the surface features that
narrow the plausible date range. classify does not parse once per era: it
runs parse's single walk with one lane per era plus the lenient lane, so the
eight verdicts and the lenient features come from one pass over the tokens.
Each verdict is read straight off the walk's lane masks: the era's lane
accepts with the unit reading, accepts with the elliptic one, or rejects
with its one failure; the accepting eras are the shared tuple of that
mask. Eras are treated as grammars, not as probability models: the result
is a consistency set, never a likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EARLY_ERAS,
    Era,
    Morpheme,
    _builder,
    token_notation,
)
from .parse import (
    _CONSISTENT,
    _FAN_OUT,
    Features,
    NumeralParseError,
    ParseErrorKind,
    _error,
    _error_dict,
    _failure,
    _walk_all,
    tokenize,
)

# Unused here; a traced run of bench/spans.py wraps it by this name.
from .parse import parse  # noqa: F401

__all__ = [
    "EraVerdict",
    "EraConsistencyReport",
    "classify",
    "feature_profile",
]


@dataclass(frozen=True, slots=True)
class EraVerdict:
    """One era grammar's ruling on a token sequence.

    Exactly one of value and error is set: value when the grammar accepts,
    error when it rejects. Different eras may accept the same sequence at
    different values (juxtaposition versus elliptic readings).
    """

    era: Era
    value: int | None = None
    error: NumeralParseError | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.error is None):
            raise ValueError("verdict needs exactly one of value or error")

    @property
    def accepts(self) -> bool:
        return self.value is not None

    def as_dict(self) -> dict[str, object]:
        if self.value is not None:
            return {
                "era": self.era.value,
                "verdict": "accepts",
                "value": self.value,
            }
        assert self.error is not None
        return {
            "era": self.era.value,
            "verdict": "rejects",
            "error": _error_dict(self.error),
        }


@dataclass(frozen=True, slots=True)
class EraConsistencyReport:
    """Which era grammars accept an expression, and why that dates it.

    verdicts holds all eight rulings in chronological order. consistent is
    the accepting subset, also chronological, and may be empty. notes are
    plain-language dating rationales keyed to the observed features.
    """

    input_tokens: tuple[Morpheme, ...]
    verdicts: tuple[EraVerdict, ...]
    features: Features
    consistent: tuple[Era, ...]
    notes: tuple[str, ...] = ()

    @property
    def earliest_consistent(self) -> Era | None:
        return self.consistent[0] if self.consistent else None

    @property
    def latest_consistent(self) -> Era | None:
        return self.consistent[-1] if self.consistent else None

    def verdict_for(self, era: Era | str) -> EraVerdict:
        key = era if isinstance(era, Era) else Era.from_string(era)
        for v in self.verdicts:
            if v.era is key:
                return v
        raise KeyError(key)

    def as_dict(self) -> dict[str, object]:
        earliest = self.earliest_consistent
        latest = self.latest_consistent
        return {
            "input_tokens": [token_notation(t) for t in self.input_tokens],
            "features": self.features.as_dict(),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "consistent_eras": [e.value for e in self.consistent],
            "earliest_consistent": earliest.value if earliest else None,
            "latest_consistent": latest.value if latest else None,
            "notes": list(self.notes),
        }


# classify builds its records through these positional constructors:
# (era, value, error) and (input_tokens, verdicts, features, consistent,
# notes).
_verdict = _builder(EraVerdict, "(value is None) == (error is None)")
_report = _builder(EraConsistencyReport)


def _coerce_tokens(source: object) -> tuple[Morpheme, ...]:
    """The tokens of source, as classify and feature_profile read it.

    A sequence of morphemes is taken as tokens, and a sequence of str is
    tokenized. Any other sequence, such as one that mixes str with
    morphemes, and anything that is not iterable, is one TypeError that
    names the argument source.
    """
    if isinstance(source, str):
        return tokenize(source)
    try:
        toks = tuple(getattr(source, "tokens", source))
    except TypeError:
        raise TypeError(
            "source must be text, a sequence of str or a sequence of "
            f"numeral Morphemes, not {source.__class__.__name__}"
        ) from None
    if not toks:
        raise _error(ParseErrorKind.EMPTY_INPUT, 0, "no tokens to classify")
    held = {t.__class__ for t in toks}
    if held == {Morpheme}:
        return toks
    if all(isinstance(t, str) for t in toks):
        return tokenize(toks)
    odd = ", ".join(sorted(c.__name__ for c in held - {str, Morpheme}))
    what = f"holding {odd}" if odd else "that mixes str and Morpheme"
    raise TypeError(
        "source must be text, a sequence of str or a sequence of "
        f"numeral Morphemes, not a sequence {what}"
    )


_YOU_NOTE = (
    "contains yòu → pre-3rd-century BCE pattern; later grammars drop the "
    "junction word entirely"
)
_YOU_FREQUENCY_NOTE = (
    "Shang oracle, Zhou bronze, and Warring States numerals share one "
    "grammar; what differs is attested yòu frequency (roughly 5% of Shang "
    "records, 98% of Zhou records, 8% of Warring States records), so the "
    "three are never separated by accept/reject alone"
)
_LING_NOTE = (
    "contains líng → 12th c. CE onward; after a long lapse the word only "
    "returned to everyday numerals in the late 19th or early 20th centuries"
)
_DAN_NOTE = (
    "contains dān or lìng → 13th-century gap word, read as líng; only the "
    "Song and Qin-dynasty grammar admits it"
)
_LIANG_NOTE = "contains liǎng in an exact numeral → 20th c. onward"
_ELLIPTIC_NOTE = (
    "final pivot omitted after a trailing digit → elliptic reading, a "
    "contemporary colloquial habit"
)
_EMPTY_NOTE = "no era grammar accepts this sequence as an exact numeral"


def _notes(features: Features, consistent: tuple[Era, ...]) -> tuple[str, ...]:
    notes: list[str] = []
    if features.uses_you:
        notes.append(_YOU_NOTE)
    if not EARLY_ERAS.isdisjoint(consistent):
        notes.append(_YOU_FREQUENCY_NOTE)
    if features.uses_dan_or_lingalt:
        notes.append(_DAN_NOTE)
    elif features.uses_ling:
        notes.append(_LING_NOTE)
    if features.liang_present:
        notes.append(_LIANG_NOTE)
    if features.elliptic:
        notes.append(_ELLIPTIC_NOTE)
    if not consistent:
        notes.append(_EMPTY_NOTE)
    return tuple(notes)


def classify(source: object) -> EraConsistencyReport:
    """Run every era grammar over one expression and report the verdicts.

    source may be a token sequence, an object with a tokens attribute, a
    text string (tokenized with automatic script detection), or a sequence
    of str, tokenized as the string of its items. Tokenization errors
    propagate; grammar rejections become per-era Rejects verdicts, each with
    an error of its own, built on this call with its message from the era's
    message table in _FAN_OUT.
    """
    toks = _coerce_tokens(source)
    alive, total, elliptic, closed, fails, _, features = _walk_all(toks)
    verdicts = tuple([
        _verdict(era, total, None) if alive & bit
        else _verdict(era, closed, None) if elliptic & bit
        else _verdict(era, None, _error(*_failure(fails, bit, messages)))
        for era, bit, messages in _FAN_OUT
    ])
    consistent = _CONSISTENT[alive | elliptic]
    return _report(toks, verdicts, features, consistent, _notes(features, consistent))


def feature_profile(source: object) -> Features:
    """The boolean feature vector of an expression, without a value claim.

    Uses the lenient parse's features when the lenient grammar accepts the
    sequence; otherwise falls back to raw token presence flags, with elliptic
    False because ellipsis is a reading, not a token. Both come from the one
    walk of classify, which reports the lenient lane's features.
    """
    return _walk_all(_coerce_tokens(source))[6]
