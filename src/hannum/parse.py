"""Tokenization and parsing of Han numeral expressions.

parse walks the token sequence once, left to right, accumulating digit-pivot
compounds into the current myriad group and closing the group at each outer
pivot. Checks that need only local context (rank descent, digit runs, liang
slots, in-group gap links) run immediately with one token of lookahead; checks
that need the group's absolute scale (cross-group gap links, the head
compound's [1] policy) are deferred to the moment the group closes, when the
outer pivot fixes the scale.

A trailing bare digit with no following pivot is resolved by the era: in
profiles where rank gaps demand the link word ling, the digit is read at the
rank just below the preceding pivot (the elliptic reading); in ling-free
profiles it is the unit digit. Lenient mode takes the elliptic reading and
reports both candidate values in diagnostics.

Error positions are token indices into the parsed sequence, except
UnknownCharacter and EmptyInput, which carry character offsets into the
source text.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from enum import Enum, unique
from typing import NoReturn

from .core import (
    DAN,
    EARLY_ERAS,
    MORPHEMES,
    Era,
    LIANG,
    LING,
    LING_ALT,
    LeadingOnePolicy,
    LingPolicy,
    Morpheme,
    OneBeforeInnerMultiplicand,
    YOU,
    YouPolicy,
    digit,
    era_profile,
    pivot,
    token_notation,
)

__all__ = [
    "Features",
    "NumeralParseError",
    "ParseErrorKind",
    "ParseOutcome",
    "ScriptHint",
    "parse",
    "parse_text",
    "tokenize",
]


@unique
class ParseErrorKind(Enum):
    UNKNOWN_CHARACTER = "UnknownCharacter"
    EMPTY_INPUT = "EmptyInput"
    MISPLACED_LING = "MisplacedLing"
    MISPLACED_YOU = "MisplacedYou"
    LIANG_BEFORE_SHI = "LiangBeforeShi"
    LIANG_IN_UNIT_SLOT = "LiangInUnitSlot"
    RANK_ORDER_VIOLATION = "RankOrderViolation"
    DIGIT_RUN_WITHOUT_PIVOT = "DigitRunWithoutPivot"
    OUT_OF_ERA_MORPHEME = "OutOfEraMorpheme"
    AMBIGUOUS_ELLIPTIC = "AmbiguousElliptic"
    OVERFLOW = "Overflow"


class NumeralParseError(ValueError):
    """A rejected input, carrying the failure kind and offending position."""

    def __init__(self, kind: ParseErrorKind, position: int, message: str) -> None:
        super().__init__(f"{kind.value} at {position}: {message}")
        self.kind = kind
        self.position = position
        self.message = message


@dataclass(frozen=True, slots=True)
class Features:
    """Structural traits of one numeral, the classifier's raw evidence."""

    uses_you: bool = False
    uses_ling: bool = False
    uses_dan_or_lingalt: bool = False
    liang_present: bool = False
    elliptic: bool = False
    leading_one_before_highest: bool = False
    one_before_inner_multiplicand: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "uses_you": self.uses_you,
            "uses_ling": self.uses_ling,
            "uses_dan_or_lingalt": self.uses_dan_or_lingalt,
            "liang_present": self.liang_present,
            "elliptic": self.elliptic,
            "leading_one_before_highest": self.leading_one_before_highest,
            "one_before_inner_multiplicand": self.one_before_inner_multiplicand,
        }


@dataclass(frozen=True, slots=True)
class ParseOutcome:
    """A successful parse: the value, the grammar it satisfied, and evidence.

    era_checked is None when the lenient grammar (the union of the era
    grammars plus documented relaxations) did the checking.
    """

    value: int
    era_checked: Era | None
    features: Features
    diagnostics: tuple[str, ...] = ()
    tokens: tuple[Morpheme, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "value": self.value,
            "era_checked": self.era_checked.value if self.era_checked else "lenient",
            "features": self.features.as_dict(),
            "diagnostics": list(self.diagnostics),
            "tokens": [token_notation(t) for t in self.tokens],
        }


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


@unique
class ScriptHint(Enum):
    AUTO = "auto"
    HAN = "han"
    PINYIN = "pinyin"


def _strip_tone_marks(syllable: str) -> str:
    decomposed = unicodedata.normalize("NFD", syllable)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


_HAN_CHARS: dict[str, Morpheme] = {g: m for m in MORPHEMES for g in m.graphs}

_PINYIN_SYLLABLES: dict[str, Morpheme] = {
    unicodedata.normalize("NFC", m.pinyin): m for m in MORPHEMES
}

# Toneless fallbacks, earlier rows winning, so toneless "ling" always reads
# as the ordinary gap word. "yi" is handled contextually before this lookup
# (digit 1, or the 10^8 pivot straight after a digit).
_TONELESS_SYLLABLES: dict[str, Morpheme] = {
    _strip_tone_marks(m.pinyin): m for m in reversed(MORPHEMES)
}


def _tokenize_impl(
    text: str, script_hint: ScriptHint, toneless: bool
) -> tuple[tuple[Morpheme, ...], bool]:
    """Returns (tokens, used_pinyin)."""
    if script_hint is ScriptHint.AUTO:
        mode = (
            ScriptHint.HAN
            if any(ch in _HAN_CHARS for ch in text)
            else ScriptHint.PINYIN
        )
    else:
        mode = script_hint

    tokens: list[Morpheme] = []
    if mode is ScriptHint.HAN:
        for offset, ch in enumerate(text):
            if ch.isspace():
                continue
            m = _HAN_CHARS.get(ch)
            if m is None:
                raise NumeralParseError(
                    ParseErrorKind.UNKNOWN_CHARACTER,
                    offset,
                    f"character {ch!r} is not in the numeral inventory",
                )
            tokens.append(m)
        if not tokens:
            raise NumeralParseError(
                ParseErrorKind.EMPTY_INPUT, 0, "no numeral content in input"
            )
        return tuple(tokens), False

    # Pinyin: whitespace-separated syllables, tracked with source offsets.
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace():
            i += 1
        syllable = unicodedata.normalize("NFC", text[start:i]).lower()
        m = _PINYIN_SYLLABLES.get(syllable)
        if m is None and toneless:
            bare = _strip_tone_marks(syllable)
            if bare == "yi":
                if tokens and tokens[-1].code <= _C_LIANG:
                    m = pivot(8)
                else:
                    m = digit(1)
            else:
                m = _TONELESS_SYLLABLES.get(bare)
        if m is None:
            raise NumeralParseError(
                ParseErrorKind.UNKNOWN_CHARACTER,
                start,
                f"syllable {text[start:i]!r} is not a numeral morpheme",
            )
        tokens.append(m)
    if not tokens:
        raise NumeralParseError(
            ParseErrorKind.EMPTY_INPUT, 0, "no numeral content in input"
        )
    return tuple(tokens), True


def tokenize(
    text: str,
    script_hint: ScriptHint = ScriptHint.AUTO,
    *,
    toneless: bool = False,
) -> tuple[Morpheme, ...]:
    """Map Han characters or pinyin syllables to morphemes.

    Auto mode chooses Han whenever any numeral character is present, so mixed
    Han/pinyin input fails on the first non-Han run. Pinyin matching is tone
    sensitive unless toneless is set, in which case bare syllables are accepted
    and "yi" is read as the 10^8 pivot straight after a digit, as the digit 1
    otherwise.
    """
    return _tokenize_impl(text, script_hint, toneless)[0]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The state machine works on the table's integer codes: digits by value,
# liang 11, pivots 20 + exponent, link and junction words from 31 up.
_C_LIANG = LIANG.code
_C_LING, _C_YOU, _C_DAN, _C_LALT = LING.code, YOU.code, DAN.code, LING_ALT.code

_LENIENT_MAX = 10**12 - 1


def parse(tokens: object, era: object = None) -> ParseOutcome:
    """Parse a morpheme sequence to its value under one era grammar.

    era may be an Era, an EraProfile, a loose era name, or None/"lenient" for
    the permissive union grammar. Raises NumeralParseError on rejection.
    """
    toks: tuple[Morpheme, ...] = tuple(getattr(tokens, "tokens", tokens))
    if era is None or isinstance(era, str) and era.strip().lower() == "lenient":
        profile = None
    else:
        profile = era_profile(era)  # type: ignore[arg-type]
    n = len(toks)
    if n == 0:
        raise NumeralParseError(
            ParseErrorKind.EMPTY_INPUT, 0, "no tokens to parse"
        )

    try:
        codes = [t.code for t in toks]
    except AttributeError:
        raise TypeError("parse expects a sequence of numeral Morphemes") from None

    lenient = profile is None
    strict_early = profile is not None and profile.era in EARLY_ERAS
    ling_required = profile is not None and profile.ling_policy is LingPolicy.REQUIRED
    max_value = profile.max_value if profile is not None else _LENIENT_MAX
    era_name = profile.era.value if profile is not None else "the lenient grammar"

    diagnostics: list[str] = []
    elliptic = False

    def err(kind: ParseErrorKind, pos: int, msg: str) -> NoReturn:
        raise NumeralParseError(kind, pos, msg)

    # Standalone zero.
    if n == 1 and codes[0] == _C_LING:
        if profile is not None and profile.ling_policy is LingPolicy.FORBIDDEN:
            err(
                ParseErrorKind.OUT_OF_ERA_MORPHEME,
                0,
                f"líng does not occur in {era_name} numerals",
            )
        if profile is not None and not profile.zero_expressible:
            err(
                ParseErrorKind.MISPLACED_LING,
                0,
                f"líng alone does not name zero in {era_name}",
            )
        return ParseOutcome(
            value=0,
            era_checked=profile.era if profile else None,
            features=_features(codes, False),
            diagnostics=(),
            tokens=toks,
        )

    total = 0
    prev_closer_exp: int | None = None
    # Current group state. members holds (digit_value, in_group_exp,
    # explicit_one, token_index); exponent 0 marks the unit slot.
    members: list[tuple[int, int, bool, int]] = []
    group_coeff = 0
    group_first_idx: int | None = None
    group_link_idx: int | None = None
    pending_gap_idx: int | None = None
    pending_you = False
    is_first_group = True

    def head_one_check(closer_exp: int | None, closer_idx: int | None) -> None:
        """Validate the [1] policy on the numeral's first compound.

        Runs when the first group closes, because whether an inner pivot is
        the sole multiplier of an outer pivot is known only then.
        """
        if lenient or strict_early:
            return
        lead = profile.leading_one_policy
        if not members:
            # Bare outer pivot opens the numeral (coefficient 1 implicit).
            if lead is not LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    closer_idx if closer_idx is not None else 0,
                    f"{era_name} writes [1] before the opening pivot",
                )
            return
        value, exp, explicit, idx = members[0]
        if value != 1:
            return
        if exp == 0:
            # A lone unit digit 1 under an outer pivot: [1][10^4] shape.
            if closer_exp is None:
                return  # the numeral is just the digit 1
            if lead is LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    idx,
                    f"{era_name} omits [1] before the numeral's first pivot",
                )
            return
        sole = (
            closer_exp is not None
            and len(members) == 1
            and profile.inner_multiplicand_one is OneBeforeInnerMultiplicand.OMIT
        )
        if sole:
            if explicit:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    idx,
                    f"{era_name} writes the sole multiplier of an outer pivot "
                    f"bare: no [1] before it",
                )
            return
        if lead is LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
            if explicit:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    idx,
                    f"{era_name} omits [1] before the numeral's first pivot",
                )
        elif lead is LeadingOnePolicy.REQUIRED_ALL:
            if not explicit:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    idx,
                    f"{era_name} writes [1] before every pivot, "
                    f"including the first",
                )
        else:  # REQUIRED_EXCEPT_LEADING_TEN
            if exp != 1 and not explicit:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    idx,
                    f"{era_name} writes [1] before an opening pivot "
                    f"above ten",
                )

    def close_group(scale_exp: int, closer_idx: int, end_idx: int) -> None:
        nonlocal total, members, group_coeff, group_first_idx
        nonlocal group_link_idx, prev_closer_exp, is_first_group
        if is_first_group:
            head_one_check(
                scale_exp if scale_exp else None,
                closer_idx if scale_exp else None,
            )
        elif scale_exp and not members:
            # A later group opened by a bare outer pivot (implicit 1).
            if not (lenient or strict_early):
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    closer_idx,
                    f"{era_name} writes [1] before a non-initial pivot",
                )
        coeff = group_coeff if members else 1
        # Cross-group gap accounting against the previous outer pivot.
        if prev_closer_exp is not None:
            top_abs = scale_exp + (members[0][1] if members else 0)
            gap = top_abs != prev_closer_exp - 1
            if gap and group_link_idx is None:
                if ling_required:
                    err(
                        ParseErrorKind.RANK_ORDER_VIOLATION,
                        group_first_idx if group_first_idx is not None else end_idx,
                        f"rank gap after the 10^{prev_closer_exp} pivot needs "
                        f"líng in {era_name}",
                    )
                if lenient:
                    diagnostics.append(
                        f"líng missing at the rank gap after the "
                        f"10^{prev_closer_exp} pivot; accepted leniently "
                        f"(outer-pivot líng drop, a known regional elision)"
                    )
            elif not gap and group_link_idx is not None:
                err(
                    ParseErrorKind.MISPLACED_LING,
                    group_link_idx,
                    "líng marks a rank gap, but the following rank is "
                    "adjacent to the pivot before it",
                )
        new_total = total + coeff * 10**scale_exp
        if new_total > max_value:
            err(
                ParseErrorKind.OVERFLOW,
                closer_idx,
                f"value exceeds the {era_name} ceiling of {max_value}",
            )
        total = new_total
        members = []
        group_coeff = 0
        group_first_idx = None
        group_link_idx = None
        if scale_exp:
            prev_closer_exp = scale_exp
        is_first_group = False

    def note_gap_word(idx: int, next_exp: int) -> None:
        """Consume a pending gap word before a compound/unit at next_exp."""
        nonlocal pending_gap_idx, group_link_idx
        if members:
            if next_exp == members[-1][1] - 1:
                err(
                    ParseErrorKind.MISPLACED_LING,
                    idx,
                    "líng marks a rank gap, but these ranks are adjacent",
                )
        else:
            group_link_idx = idx  # cross-group link, validated at close
        pending_gap_idx = None

    def gap_check_plain(next_exp: int, next_idx: int) -> None:
        """In-group gap with no link word: fine unless the era demands líng."""
        if members and ling_required and next_exp != members[-1][1] - 1:
            err(
                ParseErrorKind.RANK_ORDER_VIOLATION,
                next_idx,
                f"rank gap inside the numeral needs líng in {era_name}",
            )

    i = 0
    while i < n:
        c = codes[i]

        if c <= _C_LIANG:  # digit or liang
            is_liang = c == _C_LIANG
            value = 2 if is_liang else c
            if is_liang and profile is not None and not profile.liang_allowed:
                err(
                    ParseErrorKind.OUT_OF_ERA_MORPHEME,
                    i,
                    f"the liang variant of 2 is not part of {era_name} numerals",
                )
            nxt = codes[i + 1] if i + 1 < n else None
            if nxt is not None and nxt <= _C_LIANG:
                err(
                    ParseErrorKind.DIGIT_RUN_WITHOUT_PIVOT,
                    i + 1,
                    "two digits in direct succession form no numeral",
                )
            if nxt is not None and 21 <= nxt <= 23:
                # Digit + inner pivot: a multiplicative compound.
                k = nxt - 20
                if is_liang and k == 1:
                    err(
                        ParseErrorKind.LIANG_BEFORE_SHI,
                        i,
                        "liang never multiplies the pivot ten; only er does",
                    )
                if members and members[-1][1] <= k:
                    err(
                        ParseErrorKind.RANK_ORDER_VIOLATION,
                        i + 1,
                        "pivot ranks must descend within a myriad group",
                    )
                if pending_gap_idx is not None:
                    note_gap_word(pending_gap_idx, k)
                elif pending_you:
                    pending_you = False
                else:
                    gap_check_plain(k, i)
                if not members and group_first_idx is None:
                    group_first_idx = i
                members.append((value, k, True, i))
                group_coeff += value * 10**k
                i += 2
                continue
            # Unit slot, elliptic tail, or a digit before an outer pivot.
            if members and members[-1][1] == 0:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    i,
                    "a second unit digit cannot follow the unit slot",
                )
            consumed_link = False
            if pending_gap_idx is not None:
                note_gap_word(pending_gap_idx, 0)
                consumed_link = True
            elif pending_you:
                pending_you = False
                consumed_link = True

            if nxt is None and not consumed_link:
                prev_is_pivot = i > 0 and 21 <= codes[i - 1] <= 28
                if prev_is_pivot:
                    inferred = (
                        members[-1][1] - 1 if members else (prev_closer_exp or 1) - 1
                    )
                    if inferred >= 1:
                        if is_liang:
                            if inferred == 1:
                                err(
                                    ParseErrorKind.LIANG_BEFORE_SHI,
                                    i,
                                    "the elliptic reading would put liang on "
                                    "the pivot ten",
                                )
                            take_elliptic = True
                        elif lenient:
                            unit_reading = total + group_coeff + value
                            ell_reading = (
                                total + group_coeff + value * 10**inferred
                            )
                            diagnostics.append(
                                f"AmbiguousElliptic: trailing digit reads as "
                                f"the unit ({unit_reading}) or as an elliptic "
                                f"rank ({ell_reading}); the contemporary "
                                f"elliptic reading is returned"
                            )
                            take_elliptic = True
                        else:
                            take_elliptic = ling_required
                        if take_elliptic:
                            if not members and group_first_idx is None:
                                group_first_idx = i
                            members.append((value, inferred, True, i))
                            group_coeff += value * 10**inferred
                            elliptic = True
                            i += 1
                            continue
            if is_liang:
                if members:
                    err(
                        ParseErrorKind.LIANG_IN_UNIT_SLOT,
                        i,
                        "the unit slot of a complex numeral takes er, never liang",
                    )
                if nxt is None and n > 1:
                    err(
                        ParseErrorKind.LIANG_IN_UNIT_SLOT,
                        i,
                        "a trailing liang after a link word reads as a unit "
                        "digit, which liang cannot be",
                    )
                if nxt is not None and not 24 <= nxt <= 28:
                    err(
                        ParseErrorKind.LIANG_IN_UNIT_SLOT,
                        i,
                        "standalone liang multiplies an outer pivot only",
                    )
            if ling_required and not consumed_link and members:
                gap_check_plain(0, i)
            if not members and group_first_idx is None:
                group_first_idx = i
            members.append((value, 0, True, i))
            group_coeff += value
            i += 1
            continue

        if 21 <= c <= 23:  # bare inner pivot: compound with implicit [1]
            k = c - 20
            if pending_gap_idx is not None:
                note_gap_word(pending_gap_idx, k)
            elif pending_you:
                pending_you = False
            else:
                gap_check_plain(k, i)
            if members and members[-1][1] <= k:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    i,
                    "pivot ranks must descend within a myriad group",
                )
            non_head = members or not is_first_group
            if non_head and not (lenient or strict_early):
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    i,
                    f"{era_name} writes [1] before a non-initial pivot",
                )
            if (
                not non_head
                and not (lenient or strict_early)
                and profile.inner_multiplicand_one
                is OneBeforeInnerMultiplicand.REQUIRE
            ):
                # No sole-multiplier escape in this era, so a bare opening
                # pivot is already wrong here; report it at its own token
                # rather than at a later symptom.
                lead = profile.leading_one_policy
                if lead is LeadingOnePolicy.REQUIRED_ALL:
                    err(
                        ParseErrorKind.RANK_ORDER_VIOLATION,
                        i,
                        f"{era_name} writes [1] before every pivot, "
                        f"including the first",
                    )
                if (
                    lead is LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN
                    and k != 1
                ):
                    err(
                        ParseErrorKind.RANK_ORDER_VIOLATION,
                        i,
                        f"{era_name} writes [1] before an opening pivot "
                        f"above ten",
                    )
            if not members and group_first_idx is None:
                group_first_idx = i
            members.append((1, k, False, i))
            group_coeff += 10**k
            i += 1
            continue

        if c in (24, 28):  # outer pivot closes the group
            exp = c - 20
            if pending_gap_idx is not None:
                err(
                    ParseErrorKind.MISPLACED_LING,
                    pending_gap_idx,
                    "a gap word must be followed by a digit, not a pivot "
                    "that closes the group",
                )
            if pending_you:
                err(
                    ParseErrorKind.MISPLACED_YOU,
                    i - 1,
                    "the conjunction must be followed by an additive term, "
                    "not a group-closing pivot",
                )
            if prev_closer_exp is not None and exp >= prev_closer_exp:
                err(
                    ParseErrorKind.RANK_ORDER_VIOLATION,
                    i,
                    "outer pivots must descend across myriad groups",
                )
            if group_first_idx is None:
                group_first_idx = i
            close_group(exp, i, i)
            i += 1
            continue

        if c == _C_LING or c >= _C_DAN:  # gap words
            if c == _C_LING:
                if profile is not None and profile.ling_policy is LingPolicy.FORBIDDEN:
                    err(
                        ParseErrorKind.OUT_OF_ERA_MORPHEME,
                        i,
                        f"líng does not occur in {era_name} numerals",
                    )
            else:
                if profile is not None and profile.era is not Era.SONG_QIN:
                    err(
                        ParseErrorKind.OUT_OF_ERA_MORPHEME,
                        i,
                        f"{token_notation(toks[i])} is a 13th-century gap "
                        f"word, not part of {era_name}",
                    )
                diagnostics.append(
                    f"historical gap word {token_notation(toks[i])} read as líng"
                )
            prev_is_pivot = i > 0 and 21 <= codes[i - 1] <= 28
            if not prev_is_pivot:
                err(
                    ParseErrorKind.MISPLACED_LING,
                    i,
                    "a gap word stands only between a pivot and a following "
                    "digit",
                )
            if i == n - 1:
                err(
                    ParseErrorKind.MISPLACED_LING,
                    i,
                    "a trailing gap word marks no gap",
                )
            pending_gap_idx = i
            i += 1
            continue

        # You, the additive conjunction.
        if profile is not None and profile.you_policy is YouPolicy.FORBIDDEN:
            err(
                ParseErrorKind.OUT_OF_ERA_MORPHEME,
                i,
                f"the conjunction yòu is not part of {era_name} numerals",
            )
        prev_is_pivot = i > 0 and 21 <= codes[i - 1] <= 28
        if not prev_is_pivot:
            err(
                ParseErrorKind.MISPLACED_YOU,
                i,
                "the conjunction joins a completed compound to a lower term",
            )
        if i == n - 1:
            err(
                ParseErrorKind.MISPLACED_YOU,
                i,
                "the conjunction needs a following additive term",
            )
        pending_you = True
        i += 1
        continue

    if members:
        close_group(0, n - 1, n - 1)

    return ParseOutcome(
        value=total,
        era_checked=profile.era if profile else None,
        features=_features(codes, elliptic),
        diagnostics=tuple(diagnostics),
        tokens=toks,
    )


# Only 2**7 feature vectors exist; intern them so parsing never rebuilds one.
_FEATURE_CACHE: dict[tuple[bool, ...], Features] = {}


def _features(codes: list[int], elliptic: bool) -> Features:
    uses_you = _C_YOU in codes
    uses_dan = _C_DAN in codes or _C_LALT in codes
    uses_ling = uses_dan or _C_LING in codes
    liang_present = _C_LIANG in codes
    leading_one = len(codes) >= 2 and codes[0] == 1 and 21 <= codes[1] <= 28
    one_inner_mult = False
    if 1 in codes:
        for j in range(len(codes) - 2):
            if (
                codes[j] == 1
                and 21 <= codes[j + 1] <= 23
                and codes[j + 2] in (24, 28)
            ):
                one_inner_mult = True
                break
    key = (
        uses_you,
        uses_ling,
        uses_dan,
        liang_present,
        elliptic,
        leading_one,
        one_inner_mult,
    )
    cached = _FEATURE_CACHE.get(key)
    if cached is None:
        cached = _FEATURE_CACHE.setdefault(key, Features(*key))
    return cached


def parse_text(
    text: str,
    era: object = None,
    *,
    script_hint: ScriptHint = ScriptHint.AUTO,
    toneless: bool = False,
) -> ParseOutcome:
    """Tokenize and parse in one step.

    Positions in errors raised here are character offsets for tokenization
    failures and token indices for grammar failures.
    """
    tokens, used_pinyin = _tokenize_impl(text, script_hint, toneless)
    outcome = parse(tokens, era)
    if toneless and used_pinyin:
        note = (
            "toneless pinyin accepted; tone marks would distinguish "
            "yī/yì and líng/lìng"
        )
        outcome = replace(outcome, diagnostics=(note, *outcome.diagnostics))
    return outcome
