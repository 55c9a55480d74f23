"""Tokenization and parsing of Han numeral expressions.

The parser is one left-to-right walk over the token codes. It accumulates
the terms of the current myriad group and closes the group at each outer
pivot. A term is a digit times an inner pivot, a bare inner pivot (implicit
[1]) or a digit with no pivot after it; one step reads all three kinds, and
that step is the one place where a pending link word (ling or you) joins a
term to the one before it. Checks that need only local context (rank
descent, digit runs, liang slots, in-group gap links) run immediately with
one token of lookahead; checks that need the group's absolute scale
(cross-group gap links, the [1] rule on the numeral's first term) are
deferred to the moment the group closes, when the outer pivot fixes the
scale. An error names the first offending token, but for that deferred
[1] check: dunhuang 百五五 and suanshushu 一百五五 report their digit run,
not the [1] at token 0. Lanes that require [1] before an outer pivot's
sole inner multiplier check a bare opening pivot at once, so contemporary
百五五 fails at 0.

The walk reads several grammars at once, one lane each: an era profile or
the lenient grammar. It carries an alive bitmask over the lanes. Every
era-dependent rule is a check that either rejects or does nothing, so the
group state evolves the same way in every lane, and each such check is a
mask, built once per lane table, of the lanes it applies to. Which eras
lack which morphemes (you, ling, liang, dan and its variant ling) is one
such mask per token code, checked before anything else on each token; the
[1] rule is one list of masks per slot, built from _one_rule. A
check that fires records the first failure of each lane it hits and drops
them from the alive mask; nothing is raised inside the walk, and a
NumeralParseError is built only for a lane that rejects. parse is the walk
with one lane; chronolect's classify runs it once with the eight eras and
the lenient grammar, and so does scan_text, through _read_span, which keeps
only the lenient reading, the accepting eras and the features of each span.

The one place where lanes read differently is a trailing bare digit with no
following pivot. Lanes whose rank gaps demand the link word ling, and the
lenient lane, read it at the rank just below the preceding pivot (the
elliptic reading); ling-free lanes read it as the unit digit. The walk forks
there into at most two readings, and each closes the last group for its own
lanes. The lenient lane reports both candidate values in diagnostics.

Error positions are token indices into the parsed sequence, except
UnknownCharacter and EmptyInput, which carry character offsets into the
source text.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from enum import Enum, unique
from functools import lru_cache

from .core import (
    CHRONOLOGY,
    DAN,
    EARLY_ERAS,
    MORPHEMES,
    Era,
    EraProfile,
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

    def __reduce__(self) -> tuple[object, ...]:
        return type(self), (self.kind, self.position, self.message)


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
    """Returns (tokens, used_pinyin).

    The common case is one table lookup per character (Han) or per syllable
    (pinyin), mapped in C. Only an input with a miss reads item by item.
    """
    # Lookups go into lists, then tuples: on CPython 3.11 a tuple built
    # straight from map grows by resizing, and over repeated calls that made
    # peak RSS creep up where list-then-tuple stays flat.
    han = False
    if script_hint is not ScriptHint.PINYIN:
        # A lookup miss is None; a morpheme is always true.
        found = list(map(_HAN_CHARS.get, text))
        if found and all(found):
            return tuple(found), False
        # AUTO reads Han as soon as one character is a numeral graph.
        han = script_hint is ScriptHint.HAN or any(found)

    if han:
        tokens = list(filter(None, found))
        if len(tokens) < sum(map(len, text.split())):
            # Some miss is not whitespace: report the first such character.
            offset = next(
                i for i, m in enumerate(found) if m is None and not text[i].isspace()
            )
            raise NumeralParseError(
                ParseErrorKind.UNKNOWN_CHARACTER,
                offset,
                f"character {text[offset]!r} is not in the numeral inventory",
            )
    else:
        # Pinyin: whitespace-separated syllables.
        syllables = text.split()
        tokens = list(map(_PINYIN_SYLLABLES.get, syllables))
        if not all(tokens):
            read: list[Morpheme] = []
            for k, (syllable, m) in enumerate(zip(syllables, tokens)):
                if m is None:
                    key = unicodedata.normalize("NFC", syllable).lower()
                    m = _PINYIN_SYLLABLES.get(key)
                    if m is None and toneless:
                        bare = _strip_tone_marks(key)
                        if bare == "yi":
                            after_digit = read and read[-1].code <= _C_LIANG
                            m = pivot(8) if after_digit else digit(1)
                        else:
                            m = _TONELESS_SYLLABLES.get(bare)
                    if m is None:
                        start = 0
                        for before in syllables[:k]:
                            start = text.find(before, start) + len(before)
                        raise NumeralParseError(
                            ParseErrorKind.UNKNOWN_CHARACTER,
                            text.find(syllable, start),
                            f"syllable {syllable!r} is not a numeral morpheme",
                        )
                read.append(m)
            tokens = read
    if not tokens:
        raise NumeralParseError(
            ParseErrorKind.EMPTY_INPUT, 0, "no numeral content in input"
        )
    return tuple(tokens), not han


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

    Han text made only of inventory graphs, and pinyin whose syllables are
    already NFC lower case with tone marks, cost one table lookup per
    character or syllable. Only these inputs take the general path: Han text
    holding whitespace (dropped in one more pass), syllables that need
    normalisation (NFD or upper case), toneless syllables, and input that
    raises, which is read item by item to find the offending offset.
    """
    return _tokenize_impl(text, script_hint, toneless)[0]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The walk works on the table's integer codes: digits by value, liang 11,
# pivots 20 + exponent, link and junction words from 31 up.
_C_LIANG = LIANG.code
_C_LING, _C_YOU, _C_DAN, _C_LALT = LING.code, YOU.code, DAN.code, LING_ALT.code
_NOTATION = {m.code: m.notation for m in MORPHEMES}

_LENIENT_MAX = 10**12 - 1

_K = ParseErrorKind

# Failure tuples are (kind, position, message); a message names its lane's
# grammar as {era} and that grammar's ceiling as {ceiling}.
_Failure = tuple[ParseErrorKind, int, str]


# The OutOfEraMorpheme message of each morpheme that some era lacks.
_OUT_OF_ERA = {
    _C_LIANG: "the liang variant of 2 is not part of {era} numerals",
    _C_LING: "líng does not occur in {era} numerals",
    _C_YOU: "the conjunction yòu is not part of {era} numerals",
    _C_DAN: "dān is a 13th-century gap word, not part of {era}",
    _C_LALT: "lìng is a 13th-century gap word, not part of {era}",
}


# The slots of the [1] rule: the numeral's first term as a ten or a higher
# inner pivot, either of those as an outer pivot's sole multiplier, or an
# outer pivot; and any later pivot. _Lanes.one[slot + written] is a slot's
# rule with [1] omitted or written.
_TEN, _HIGH, _SOLE_TEN, _SOLE_HIGH, _OUTER, _LATER = range(0, 12, 2)


def _one_rule(profile: EraProfile, slot: int, written: bool) -> str | None:
    """The message of the [1] rule that profile breaks in slot, or None."""
    if slot == _LATER:
        return None if written else "{era} writes [1] before a non-initial pivot"
    if (
        slot in (_SOLE_TEN, _SOLE_HIGH)
        and profile.inner_multiplicand_one is OneBeforeInnerMultiplicand.OMIT
    ):
        return (
            "{era} writes the sole multiplier of an outer pivot bare: "
            "no [1] before it"
        ) if written else None
    lead = profile.leading_one_policy
    if lead is LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
        return "{era} omits [1] before the numeral's first pivot" if written else None
    if written:
        return None
    if slot == _OUTER:
        return "{era} writes [1] before the opening pivot"
    if lead is LeadingOnePolicy.REQUIRED_ALL:
        return "{era} writes [1] before every pivot, including the first"
    if slot in (_HIGH, _SOLE_HIGH):
        return "{era} writes [1] before an opening pivot above ten"
    return None


class _Lanes:
    """A set of grammars read together, one bit of an alive mask each.

    Lane k is bit 1 << k; a profile of None is the lenient grammar. Every
    era-dependent check of the walk reads a lane mask built here once, or
    one of two tables of them: banned[code], the lanes whose era lacks that
    morpheme, and one[slot + written], the [1] rule of a slot as (lanes,
    message) pairs from _one_rule, which early-era lanes do not read.
    """

    __slots__ = (
        "profiles", "era_checked", "names", "maxes", "ceilings", "floor",
        "banned", "one", "all", "lenient", "elliptic", "zero_bad", "ling_req",
        "inner_req",
    )

    def __init__(self, profiles: tuple[EraProfile | None, ...]) -> None:
        self.profiles = profiles
        only = profiles[0] if len(profiles) == 1 else None
        self.era_checked = only.era if only is not None else None
        self.names = tuple(
            p.era.value if p is not None else "the lenient grammar"
            for p in profiles
        )
        self.maxes = tuple(
            p.max_value if p is not None else _LENIENT_MAX for p in profiles
        )
        self.ceilings = tuple(
            (mx, sum(1 << k for k, v in enumerate(self.maxes) if v == mx))
            for mx in sorted(set(self.maxes))
        )
        self.floor = min(self.maxes)
        self.all = (1 << len(profiles)) - 1
        self.lenient = self.elliptic = self.zero_bad = self.ling_req = self.inner_req = 0
        banned = [0] * (max(_NOTATION) + 1)
        one: list[dict[str, int]] = [{} for _ in range(_LATER + 2)]
        for k, p in enumerate(profiles):
            bit = 1 << k
            if p is None:
                self.lenient |= bit
                self.elliptic |= bit
                continue
            if p.ling_policy is LingPolicy.REQUIRED:
                self.elliptic |= bit
                self.ling_req |= bit
            if not p.zero_expressible:
                self.zero_bad |= bit
            lacks = {
                _C_LIANG: not p.liang_allowed,
                _C_LING: p.ling_policy is LingPolicy.FORBIDDEN,
                _C_YOU: p.you_policy is YouPolicy.FORBIDDEN,
                _C_DAN: p.era is not Era.SONG_QIN,
                _C_LALT: p.era is not Era.SONG_QIN,
            }
            for code, lacked in lacks.items():
                if lacked:
                    banned[code] |= bit
            if p.era in EARLY_ERAS:
                continue
            if p.inner_multiplicand_one is OneBeforeInnerMultiplicand.REQUIRE:
                self.inner_req |= bit
            for index, rules in enumerate(one):
                message = _one_rule(p, index & ~1, bool(index & 1))
                if message is not None:
                    rules[message] = rules.get(message, 0) | bit
        self.banned = banned
        self.one = tuple(
            tuple((mask, message) for message, mask in rules.items())
            for rules in one
        )

    def error(self, lane: int, failure: _Failure) -> NumeralParseError:
        """The NumeralParseError of one rejecting lane."""
        kind, position, message = failure
        return NumeralParseError(
            kind,
            position,
            message.format(era=self.names[lane], ceiling=self.maxes[lane]),
        )


_LENIENT_LANES = _Lanes((None,))
_ERA_LANES: dict[Era, _Lanes] = {e: _Lanes((era_profile(e),)) for e in CHRONOLOGY}
# Every era in chronological order, then the lenient grammar.
_ALL_LANES = _Lanes((*(era_profile(e) for e in CHRONOLOGY), None))
_LENIENT_LANE = len(CHRONOLOGY)


@lru_cache(maxsize=64)
def _profile_lanes(profile: EraProfile) -> _Lanes:
    """The one-lane table of a profile that is not a standard era's own."""
    return _Lanes((profile,))


def _fail(fails: list[_Failure | None], bad: int, kind: ParseErrorKind,
          pos: int, msg: str) -> None:
    """Record the failure of every lane in bad; each lane fails only once."""
    lane = 0
    while bad:
        if bad & 1:
            fails[lane] = (kind, pos, msg)
        bad >>= 1
        lane += 1


def _break_one(fails: list[_Failure | None], lanes: int,
               rules: tuple[tuple[int, str], ...], pos: int) -> int:
    """Record where the lanes break one of rules; returns their mask."""
    broken = 0
    for mask, message in rules:
        bad = lanes & mask
        if bad:
            _fail(fails, bad, _K.RANK_ORDER_VIOLATION, pos, message)
            broken |= bad
    return broken


def _close(
    L: _Lanes,
    alive: int,
    fails: list[_Failure | None],
    diags: list[tuple[int, str]],
    members: list[tuple[int, int, bool, int]],
    coeff: int,
    total: int,
    prev_exp: int | None,
    first_idx: int,
    link_idx: int | None,
    first_group: bool,
    scale: int,
    closer_idx: int,
) -> tuple[int, int]:
    """Close a myriad group at 10^scale; returns (alive, new total).

    The checks that need the group's absolute scale run here, in this order:
    the [1] rule on the numeral's first term (whether an inner pivot is the
    sole multiplier of an outer pivot is known only now) or on a later group
    opened by a bare outer pivot, read from L.one; cross-group gap links
    against the previous outer pivot; and each lane's ceiling.
    """
    slot = None
    if not members:
        # A bare outer pivot opens the group (coefficient 1 implicit).
        slot, pos = _OUTER if first_group else _LATER, closer_idx
    elif first_group and members[0][0] == 1:
        _, exp, written, pos = members[0]
        if not exp:
            # A lone unit digit 1 under an outer pivot: [1][10^4] shape.
            slot = _OUTER + written if scale else None
        elif scale and len(members) == 1:
            slot = (_SOLE_TEN if exp == 1 else _SOLE_HIGH) + written
        else:
            slot = (_TEN if exp == 1 else _HIGH) + written
    rules = L.one[slot] if slot is not None else ()
    if rules:
        alive ^= _break_one(fails, alive, rules, pos)
    if prev_exp is not None:
        top_abs = scale + (members[0][1] if members else 0)
        gap = top_abs != prev_exp - 1
        if gap and link_idx is None:
            bad = alive & L.ling_req
            if bad:
                _fail(fails, bad, _K.RANK_ORDER_VIOLATION, first_idx,
                      f"rank gap after the 10^{prev_exp} pivot needs "
                      f"líng in {{era}}")
                alive ^= bad
            lenient = alive & L.lenient
            if lenient:
                diags.append((
                    lenient,
                    f"líng missing at the rank gap after the "
                    f"10^{prev_exp} pivot; accepted leniently "
                    f"(outer-pivot líng drop, a known regional elision)",
                ))
        elif not gap and link_idx is not None:
            _fail(fails, alive, _K.MISPLACED_LING, link_idx,
                  "líng marks a rank gap, but the following rank is "
                  "adjacent to the pivot before it")
            return 0, total
    total += (coeff if members else 1) * 10**scale
    if total > L.floor:
        bad = 0
        for ceiling, mask in L.ceilings:
            if total > ceiling:
                bad |= mask
        bad &= alive
        if bad:
            _fail(fails, bad, _K.OVERFLOW, closer_idx,
                  "value exceeds the {era} ceiling of {ceiling}")
            alive ^= bad
    return alive, total


def _walk(
    codes: list[int], L: _Lanes
) -> tuple[list[int | None], int, list[_Failure | None], list[tuple[int, str]]]:
    """Read codes under every lane of L in one left-to-right pass.

    Returns (values, elliptic, fails, diagnostics): each lane's value, or
    None where it rejects; the mask of accepting lanes that took the
    elliptic reading; each rejecting lane's first failure; and the
    diagnostics, each tagged with the mask of the lanes it belongs to.
    """
    n = len(codes)
    alive = L.all
    banned = L.banned
    lanes = len(L.names)
    values: list[int | None] = [None] * lanes
    fails: list[_Failure | None] = [None] * lanes
    diags: list[tuple[int, str]] = []
    readings: list[tuple[int, int]] = []
    elliptic = 0
    total = 0
    prev_exp: int | None = None
    # Current group state. members holds (digit_value, in_group_exp,
    # explicit_one, token_index); exponent 0 marks the unit slot.
    members: list[tuple[int, int, bool, int]] = []
    coeff = 0
    first_idx: int | None = None
    link_idx: int | None = None
    gap_idx: int | None = None
    you = False
    first_group = True
    # The elliptic reading of a trailing digit: (lanes, members, coeff,
    # first_idx) of the group it closes.
    fork: tuple[int, list[tuple[int, int, bool, int]], int, int | None] | None = None

    i = 0
    while alive and i < n:
        c = codes[i]
        bad = alive & banned[c]
        if bad:
            _fail(fails, bad, _K.OUT_OF_ERA_MORPHEME, i, _OUT_OF_ERA[c])
            alive ^= bad
            if not alive:
                break

        if c <= 23:
            # A term: a digit times an inner pivot, a bare inner pivot, or
            # a digit with no pivot after it (the unit slot, an elliptic
            # tail, or the multiplier of an outer pivot). k is its rank in
            # the group, 0 for the unit slot.
            explicit = c <= _C_LIANG
            nxt = codes[i + 1] if i + 1 < n else None
            if not explicit:
                value, k, step = 1, c - 20, 1
            else:
                if nxt is not None and nxt <= _C_LIANG:
                    _fail(fails, alive, _K.DIGIT_RUN_WITHOUT_PIVOT, i + 1,
                          "two digits in direct succession form no numeral")
                    break
                value = 2 if c == _C_LIANG else c
                if nxt is not None and 21 <= nxt <= 23:
                    k, step = nxt - 20, 2
                    if k == 1 and c == _C_LIANG:
                        _fail(fails, alive, _K.LIANG_BEFORE_SHI, i,
                              "liang never multiplies the pivot ten; only er does")
                        break
                else:
                    k, step = 0, 1
            above = members[-1][1] if members else None
            # A pending líng or yòu links this term to the one before it.
            linked = gap_idx is not None or you
            if gap_idx is not None:
                if above is None:
                    link_idx = gap_idx  # cross-group link, checked at close
                elif k == above - 1:
                    _fail(fails, alive, _K.MISPLACED_LING, gap_idx,
                          "líng marks a rank gap, but these ranks are adjacent")
                    break
                gap_idx = None
            you = False

            if not k:
                if nxt is None and not linked and i and 21 <= codes[i - 1] <= 28:
                    # A trailing bare digit after a pivot: the lanes that
                    # demand líng (and the lenient one) read it one rank
                    # below the pivot, the rest as the unit digit. Trailing
                    # liang is never a unit.
                    inferred = above - 1 if above is not None else (prev_exp or 1) - 1
                    if inferred >= 1:
                        if c == _C_LIANG:
                            if inferred == 1:
                                _fail(fails, alive, _K.LIANG_BEFORE_SHI, i,
                                      "the elliptic reading would put liang on "
                                      "the pivot ten")
                                break
                            ell = alive
                        else:
                            ell = alive & L.elliptic
                            lenient = alive & L.lenient
                            if lenient:
                                diags.append((
                                    lenient,
                                    f"AmbiguousElliptic: trailing digit reads as "
                                    f"the unit ({total + coeff + value}) or as an "
                                    f"elliptic rank "
                                    f"({total + coeff + value * 10**inferred}); the "
                                    f"contemporary elliptic reading is returned",
                                ))
                        if ell:
                            fork = (
                                ell,
                                [*members, (value, inferred, True, i)],
                                coeff + value * 10**inferred,
                                i if not members and first_idx is None else first_idx,
                            )
                            alive ^= ell
                            if not alive:
                                break
                if c == _C_LIANG:
                    if members:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "the unit slot of a complex numeral takes er, "
                              "never liang")
                        break
                    if nxt is None and n > 1:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "a trailing liang after a link word reads as a "
                              "unit digit, which liang cannot be")
                        break
                    if nxt is not None and not 24 <= nxt <= 28:
                        _fail(fails, alive, _K.LIANG_IN_UNIT_SLOT, i,
                              "standalone liang multiplies an outer pivot only")
                        break

            if above is not None:
                # A digit-led term that breaks descent reports only that; a
                # bare pivot first reports the missing líng where required.
                # The unit slot is never filled twice: after a unit digit
                # only an outer pivot is not already rejected.
                if not linked and k != above - 1 and (k < above or not explicit):
                    bad = alive & L.ling_req
                    if bad:
                        _fail(fails, bad, _K.RANK_ORDER_VIOLATION, i,
                              "rank gap inside the numeral needs líng in {era}")
                        alive ^= bad
                        if not alive:
                            break
                if k >= above:
                    _fail(fails, alive, _K.RANK_ORDER_VIOLATION, i + step - 1,
                          "pivot ranks must descend within a myriad group")
                    break
            if not explicit:
                if members or not first_group:
                    rules, lanes = L.one[_LATER], alive
                else:
                    # Without the sole-multiplier escape a bare opening pivot
                    # is already wrong; report it at its own token rather
                    # than at a later symptom.
                    rules = L.one[_TEN if k == 1 else _HIGH]
                    lanes = alive & L.inner_req
                if rules:
                    alive ^= _break_one(fails, lanes, rules, i)
                    if not alive:
                        break
            if not members and first_idx is None:
                first_idx = i
            members.append((value, k, explicit, i))
            coeff += value * 10**k
            i += step
            continue

        if c == 24 or c == 28:  # outer pivot closes the group
            exp = c - 20
            if gap_idx is not None:
                _fail(fails, alive, _K.MISPLACED_LING, gap_idx,
                      "a gap word must be followed by a digit, not a pivot "
                      "that closes the group")
                break
            if you:
                _fail(fails, alive, _K.MISPLACED_YOU, i - 1,
                      "the conjunction must be followed by an additive term, "
                      "not a group-closing pivot")
                break
            if prev_exp is not None and exp >= prev_exp:
                _fail(fails, alive, _K.RANK_ORDER_VIOLATION, i,
                      "outer pivots must descend across myriad groups")
                break
            if first_idx is None:
                first_idx = i
            alive, total = _close(
                L, alive, fails, diags, members, coeff, total, prev_exp,
                first_idx, link_idx, first_group, exp, i,
            )
            members = []
            coeff = 0
            first_idx = link_idx = None
            prev_exp = exp
            first_group = False
            i += 1
            continue

        if c == _C_LING or c >= _C_DAN:  # gap words
            if c != _C_LING:
                diags.append(
                    (alive, f"historical gap word {_NOTATION[c]} read as líng")
                )
            elif n == 1:  # standalone zero
                bad = alive & L.zero_bad
                if bad:
                    _fail(fails, bad, _K.MISPLACED_LING, 0,
                          "líng alone does not name zero in {era}")
                    alive ^= bad
                readings.append((alive, 0))
                break
            if not (i and 21 <= codes[i - 1] <= 28):
                _fail(fails, alive, _K.MISPLACED_LING, i,
                      "a gap word stands only between a pivot and a following "
                      "digit")
                break
            if i == n - 1:
                _fail(fails, alive, _K.MISPLACED_LING, i,
                      "a trailing gap word marks no gap")
                break
            gap_idx = i
            i += 1
            continue

        # You, the additive conjunction.
        if not (i and 21 <= codes[i - 1] <= 28):
            _fail(fails, alive, _K.MISPLACED_YOU, i,
                  "the conjunction joins a completed compound to a lower term")
            break
        if i == n - 1:
            _fail(fails, alive, _K.MISPLACED_YOU, i,
                  "the conjunction needs a following additive term")
            break
        you = True
        i += 1
    else:  # the walk was not cut short by a failure
        closed = total
        if alive and members:
            alive, closed = _close(
                L, alive, fails, diags, members, coeff, total, prev_exp,
                first_idx, link_idx, first_group, 0, n - 1,
            )
        if alive:
            readings.append((alive, closed))

    if fork is not None:
        ell, members, coeff, first_idx = fork
        elliptic, closed = _close(
            L, ell, fails, diags, members, coeff, total, prev_exp,
            first_idx, link_idx, first_group, 0, n - 1,
        )
        readings.append((elliptic, closed))
    for mask, value in readings:
        lane = 0
        while mask:
            if mask & 1:
                values[lane] = value
            mask >>= 1
            lane += 1
    return values, elliptic, fails, diags


def _codes(toks: tuple[Morpheme, ...]) -> list[int]:
    try:
        return [t.code for t in toks]
    except AttributeError:
        raise TypeError("parse expects a sequence of numeral Morphemes") from None


def _walk_all(
    toks: tuple[Morpheme, ...]
) -> tuple[list[int | None], list[_Failure | None], list[tuple[int, str]], Features]:
    """One walk of toks under every era and the lenient grammar.

    Returns _walk's values, failures and diagnostics, and the features: the
    lenient grammar's, or, where it rejects, the token flags with elliptic
    False.
    """
    codes = _codes(toks)
    values, elliptic, fails, diags = _walk(codes, _ALL_LANES)
    return values, fails, diags, _features(codes, bool(elliptic >> _LENIENT_LANE & 1))


def _read_eras(
    toks: tuple[Morpheme, ...]
) -> tuple[list[int | NumeralParseError], Features]:
    """Every era's reading of toks from one walk, in chronological order.

    Each entry is the value that era's parse returns or the error it raises.
    """
    values, fails, _, features = _walk_all(toks)
    readings: list[int | NumeralParseError] = [
        value if value is not None else _ALL_LANES.error(lane, fails[lane])
        for lane, value in enumerate(values[:_LENIENT_LANE])
    ]
    return readings, features


_LENIENT_BIT = 1 << _LENIENT_LANE


def _read_span(
    toks: tuple[Morpheme, ...]
) -> tuple[ParseOutcome | None, NumeralParseError | None, tuple[Era, ...], Features]:
    """What scan keeps of a span, from one walk: (outcome, error, eras, features).

    outcome or error is exactly what parse(toks, None) returns or raises; eras
    are the accepting eras in chronological order, as classify reports them.
    No error is built for a rejecting era.
    """
    values, fails, diags, features = _walk_all(toks)
    consistent = tuple(era for era, v in zip(CHRONOLOGY, values) if v is not None)
    value = values[_LENIENT_LANE]
    if value is None:
        failure = fails[_LENIENT_LANE]
        assert failure is not None
        return None, _ALL_LANES.error(_LENIENT_LANE, failure), consistent, features
    outcome = ParseOutcome(
        value=value,
        era_checked=None,
        features=features,
        diagnostics=tuple(text for mask, text in diags if mask & _LENIENT_BIT),
        tokens=toks,
    )
    return outcome, None, consistent, features


def parse(tokens: object, era: object = None) -> ParseOutcome:
    """Parse a morpheme sequence to its value under one era grammar.

    era may be an Era, an EraProfile, a loose era name, or None/"lenient" for
    the permissive union grammar. Raises NumeralParseError on rejection.
    """
    toks: tuple[Morpheme, ...] = tuple(getattr(tokens, "tokens", tokens))
    if era is None or isinstance(era, str) and era.strip().lower() == "lenient":
        lanes = _LENIENT_LANES
    elif era.__class__ is Era:
        lanes = _ERA_LANES[era]  # type: ignore[index]
    else:
        profile = era_profile(era)  # type: ignore[arg-type]
        lanes = _ERA_LANES[profile.era]
        if lanes.profiles[0] is not profile:
            lanes = _profile_lanes(profile)
    if not toks:
        raise NumeralParseError(
            ParseErrorKind.EMPTY_INPUT, 0, "no tokens to parse"
        )
    codes = _codes(toks)
    values, elliptic, fails, diags = _walk(codes, lanes)
    value = values[0]
    if value is None:
        raise lanes.error(0, fails[0])  # type: ignore[arg-type]
    return ParseOutcome(
        value=value,
        era_checked=lanes.era_checked,
        features=_features(codes, elliptic != 0),
        diagnostics=tuple(text for _, text in diags),
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
