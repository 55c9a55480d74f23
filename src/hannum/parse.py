"""Tokenization and parsing of Han numeral expressions.

The parser walks the token codes left to right, one myriad group at a
time: a group runs from just after an outer pivot (or the numeral's start)
up to and including the next outer pivot, and any link word that opens it
belongs to it. Within a group the walk keeps only its terms (the first,
the rank of the last, how many and their sum) and closes the group at its
outer pivot, or at the numeral's end. A term is a digit times an inner
pivot, a bare inner pivot (implicit [1]) or a digit with no pivot after
it; one step reads all three kinds. Every token is either consumed or
fails the group, so a pending link word (ling or you) is always the token
before: the term step reads it there, joining a term to the one before it,
and a gap word at a later group's first token links the group to the outer
pivot before it. One step reads every link word, with the token after it,
and checks where it stands against one entry per word (_LINKS), so yòu and
the gap words break their shared placement rules at one place and differ
only in kind and wording. Checks that need only local context (rank
descent, digit runs, liang slots, in-group gap links) run immediately with
one token of lookahead; checks that need the group's absolute scale
(cross-group gap links, the [1] rule on the numeral's first term) are
deferred to the moment the group closes, when the outer pivot fixes the
scale. An error names the first offending token, but for that deferred [1]
check: dunhuang 百五五 and suanshushu 一百五五 report their digit run, not the
[1] at token 0. Lanes that require [1] before an outer pivot's sole inner
multiplier check a bare opening pivot at once, so contemporary 百五五 fails
at 0.

The walk reads several grammars at once, one lane each: an era grammar or
the lenient one. An era grammar is what the walk reads of a profile (see
_grammar): whether you, ling, liang, the zero word and the 13th-century gap
words are admitted, and the two [1] policies, which the early eras do not
read. Its era name and its ceiling are not part of it: the caller passes
the ceiling, which the walk checks as it joins the groups, and gives the
name when it builds an error. The walk carries an alive bitmask over the
lanes. Every era-dependent rule is a check that either rejects or does
nothing, so the group state evolves the same way in every lane, and each
such check is a mask, built once per lane table, of the lanes it applies
to. Which eras lack which morphemes (you, ling, liang, dan and its variant
ling) is one such mask per token code, checked before anything else on
each token; the [1] rule is one list of masks per slot, built from
_one_rule, which the renderer also reads to decide the numeral's first [1],
as it reads _one_slot to name a term's slot. A check that fires records one
failure, (lanes, kind, position, message), for the lanes it hits and drops
them from the alive mask. A failure keeps that one shape from a group's
memoized reading to every reader: the walk answers with two masks of
accepting lanes (the unit reading and the elliptic one) and their values,
and the failures in walk order, and every lane is in exactly one mask or
one failure. Nothing is raised inside the walk, and a NumeralParseError is
built only for a lane that rejects, from its failure as _failure reads it
for every reader: (kind, position, message), the message from the lane's
reader's table. parse is the walk with one lane, so it raises from its one
failure; chronolect's classify runs it once over seven lanes and fans them
out to the eight eras (the three early eras differ only in how often they
attest you, so they share a lane), and so does scan_text, through
_read_span, which keeps only the lenient reading, the accepting eras and
the features of each span. Where the lenient lane rejects, _read_span
hands on its failure, with no error built: scan keeps that tuple and
builds the error its records carry itself. The walk hands every reader its
Features: the token flags, and the elliptic flag of the one lane of a
one-lane table or of the lenient lane of the seven.

The one place where lanes read differently is a trailing bare digit with no
following pivot. Lanes whose rank gaps demand the link word ling, and the
lenient lane, read it at the rank just below the preceding pivot (the
elliptic reading); ling-free lanes read it as the unit digit. Such a digit
is the group's last token, so the walk forks there into at most two
readings and closes the elliptic one at once, for its own lanes; the main
reading closes after it. The lenient lane reports both candidate values in
diagnostics.

A group's reading depends only on its codes and the exponent of the outer
pivot before it, so each lane table memoizes it: _group reads a group
token by token under every lane of the table, closing it with _close, and
the table's memo, a plain dict, keeps the result under the group's codes
preceded by that outer pivot. The reading holds the lanes alive once the
group closes, the group's failures at positions relative to the group, the
diagnostics, the value the group adds, the elliptic fork and the group's
feature bits, so the features need no second scan of the codes. Lanes
never change the walk's state, only whether they are still on it, so the
join cuts a reading down to the lanes alive as the group opens. The join
also does what depends on the groups before: it adds the value to the
running total, checks each lane's ceiling against that total, shifts the
positions, and writes the AmbiguousElliptic diagnostic, which shows the
total.

Lane tables are keyed by grammar, so every profile of one grammar, custom
or standard, reads through one table and one memo of readings. There are
208 era grammars and the lenient one, so the one-lane tables (_TABLES) are
built on first use and never evicted; with the seven-lane table of
classify they are at most 210. Their memos share one budget: together they
store at most _GROUP_MEMO (262,144) readings, and never a group longer
than _LONGEST_GROUP (11) tokens, the longest any grammar accepts; past the
budget new groups are read every time and not stored. At the budget the
memos take about 74 MB by tracemalloc when parse and classify both
read renderings of every era, three in ten mutated (283 bytes a reading),
and about 98 MB if classify alone fills them (374 bytes a seven-lane
reading), whatever the number of profiles.

Error positions are token indices into the parsed sequence, except
UnknownCharacter and EmptyInput, which carry character offsets into the
source text.
"""

from __future__ import annotations

import codecs
import re
import unicodedata
from dataclasses import dataclass, fields, replace
from enum import unique
from operator import itemgetter as _itemgetter

from .core import (
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
    _Enum,
    _PROFILES,
    _builder,
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
class ParseErrorKind(_Enum):
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
    """A rejected input, carrying the failure kind and offending position.

    hannum builds every error it raises or stores in one step, through
    parse._error, which makes the same error as this constructor; the
    constructor and pickling are the public ones. The three fields live in
    slots, so building an error makes no instance dict; the exception's own
    dict still takes notes and any attribute a caller sets, and vars(err)
    is empty.
    """

    __slots__ = ("kind", "position", "message", "__weakref__")

    def __init__(self, kind: ParseErrorKind, position: int, message: str) -> None:
        if not isinstance(kind, ParseErrorKind):
            raise TypeError(f"kind must be a ParseErrorKind, not {type(kind).__name__}")
        super().__init__(f"{kind.value} at {position}: {message}")
        self.kind = kind
        self.position = position
        self.message = message

    def __reduce__(self) -> tuple[object, ...]:
        return type(self), (self.kind, self.position, self.message)


_K = ParseErrorKind
_new_error = ValueError.__new__
_charmap_encode = codecs.charmap_encode


def _error(kind: ParseErrorKind, position: int, message: str) -> NumeralParseError:
    """NumeralParseError(kind, position, message), built in one step.

    ValueError.__new__ sets args to the text the constructor passes up, and
    the fields are stored in their slots as its __init__ stores them, so the
    error is the one the constructor builds; no __init__ runs, and the
    kind's text is read as _value_, not through the Enum descriptor. message
    is the final text: a grammar failure's comes from its reader's
    _Messages.
    """
    err = _new_error(NumeralParseError, f"{kind._value_} at {position}: {message}")
    err.kind = kind
    err.position = position
    err.message = message
    return err


class _Messages(dict):
    """One reader's failure messages, by template (see _Failures): each
    template formatted for the grammar's name and ceiling on first use,
    then kept. Each standard reader, the eight eras and the lenient
    grammar, holds one table for the life of the process, so it keeps at
    most one message per template; a custom profile's reader gets a new
    table on every parse, so it keeps nothing."""

    __slots__ = ("name", "ceiling")

    def __init__(self, name: str, ceiling: int) -> None:
        self.name = name
        self.ceiling = ceiling

    def __missing__(self, template: str) -> str:
        text = self[template] = template.format(era=self.name, ceiling=self.ceiling)
        return text


def _error_dict(err: NumeralParseError) -> dict[str, object]:
    """A rejection's fields as the JSON output of classify and scan writes them."""
    return {"kind": err.kind._value_, "position": err.position, "message": err.message}


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
        return {name: getattr(self, name) for name in _FEATURE_NAMES}


_FEATURE_NAMES = tuple(f.name for f in fields(Features))


@dataclass(frozen=True, slots=True)
class ParseOutcome:
    """A successful parse: the value, the grammar it satisfied, and evidence.

    era_checked is None when the lenient grammar did the checking. That
    grammar admits every morpheme, reads no [1] rule, takes a rank gap
    without líng (with a diagnostic after an outer pivot), reads a trailing
    bare digit after a pivot elliptically (with a diagnostic naming both
    readings) and has the ceiling 10^12 - 1. It rejects no form of up to
    four tokens that an era grammar accepts, but it is not the union of the
    era grammars: it accepts 千單十 as 1,010, which no era grammar accepts,
    and reads 一萬一百一 as 10,110, where each era that accepts it reads
    10,101. Whether to align it is an open decision (ROADMAP item 22).
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


# parse and _read_span build their outcomes through this positional
# constructor: (value, era_checked, features, diagnostics, tokens).
_outcome = _builder(ParseOutcome)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


@unique
class ScriptHint(_Enum):
    AUTO = "auto"
    HAN = "han"
    PINYIN = "pinyin"


def _strip_tone_marks(syllable: str) -> str:
    decomposed = unicodedata.normalize("NFD", syllable)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


_HAN_CHARS: dict[str, Morpheme] = {g: m for m in MORPHEMES for g in m.graphs}
# Enum members read once here: on CPython 3.11 a member read at call time
# costs more than the encoding of a short Han text.
_AUTO_HINT, _HAN_HINT, _PINYIN_HINT = ScriptHint.AUTO, ScriptHint.HAN, ScriptHint.PINYIN


def _charmap() -> tuple[object, tuple[Morpheme | None, ...], bytes]:
    """The Han fast path's tables: an encoding map that writes each graph as
    one byte, the morpheme of each byte as a 256-slot tuple (None where no
    graph is written), which the tokenizer's itemgetter indexes without
    hashing, and the translation that folds the byte of a variant graph onto
    its morpheme's code.

    A morpheme's first graph is written as its code, and every further graph
    (simplified 两 万 亿, 又, 单) on a byte of its own above the codes, since
    the map is a decoding table, one character per byte. Byte 0 decodes to
    NUL, which charmap_build needs for its compact map; 0 is no morpheme's
    byte, so _tokenize_impl drops it and counts a NUL as a character that
    is not a graph. The unused bytes hold U+FFFE, which the compact map
    leaves unmapped.
    """
    table = ["\x00"] + ["\ufffe"] * 255
    fold = bytearray(range(256))
    by_raw: list[Morpheme | None] = [None] * 256
    spare = max(m.code for m in MORPHEMES) + 1
    for m in MORPHEMES:
        for k, graph in enumerate(m.graphs):
            if k:
                raw, spare = spare, spare + 1
            else:
                raw = m.code
            table[raw] = graph
            fold[raw] = m.code
            by_raw[raw] = m
    return codecs.charmap_build("".join(table)), tuple(by_raw), bytes(fold)


_CHARMAP, _BY_RAW, _FOLD = _charmap()

# The last Han text tokenized on the fast path, as (tokens, codes): _codes
# returns those codes for that very tuple instead of reading them again. One
# slot, written in one store, and it keeps its tuple alive, so identity
# means the same tokens.
_HANDOFF: list[tuple[tuple[Morpheme, ...], bytes]] = [((), b"")]

_PINYIN_SYLLABLES: dict[str, Morpheme] = {
    unicodedata.normalize("NFC", m.pinyin): m for m in MORPHEMES
}
_PINYIN_CODES = {syllable: m.code for syllable, m in _PINYIN_SYLLABLES.items()}

# Toneless fallbacks, earlier rows winning, so toneless "ling" always reads
# as the ordinary gap word. "yi" is handled contextually before this lookup
# (digit 1, or the 10^8 pivot straight after a digit).
_TONELESS_SYLLABLES: dict[str, Morpheme] = {
    _strip_tone_marks(m.pinyin): m for m in reversed(MORPHEMES)
}


# The Unicode names that make a character a CJK ideograph, 〇's among them:
# a text with no graph whose first character but whitespace is one is Han to
# AUTO, so its error names that character.
_IDEOGRAPHS = ("CJK UNIFIED IDEOGRAPH", "CJK COMPATIBILITY IDEOGRAPH", "IDEOGRAPHIC NUMBER ZERO")


def _not_text(got: str, what: str = "a str or a sequence of str") -> TypeError:
    return TypeError(f"tokenize expects text as {what}, not {got}")


def _unknown(position: int, char: str) -> NumeralParseError:
    """The UnknownCharacter error of char, which is not a graph, at position."""
    message = f"character {char!r} is not in the numeral inventory"
    return _error(_K.UNKNOWN_CHARACTER, position, message)


def _tokenize_items(text: object) -> tuple[Morpheme, ...]:
    """A sequence that is not a str, read as the string of its items: a
    whitespace or empty item is skipped, and any other item must be a graph,
    else UnknownCharacter at its index."""
    try:
        items = list(text)  # type: ignore[call-overload]
    except TypeError:
        raise _not_text(type(text).__name__) from None
    for item in items:
        if not isinstance(item, str):
            raise _not_text(f"a sequence holding {type(item).__name__}")
    tokens = []
    for index, item in enumerate(items):
        m = _HAN_CHARS.get(item)
        if m is not None:
            tokens.append(m)
        elif item.strip():
            raise _unknown(index, item)
    if not tokens:
        raise _error(_K.EMPTY_INPUT, 0, "no numeral content in input")
    return tuple(tokens)


def _tokenize_impl(
    text: str, script_hint: ScriptHint, toneless: bool
) -> tuple[tuple[Morpheme, ...], bool]:
    """Returns (tokens, used_pinyin).

    Han text costs three C calls, whatever its length: one charmap encoding
    through _CHARMAP to one byte per graph, one itemgetter over those bytes
    for the tokens, and one translate for their codes. Text of graphs alone
    needs nothing more; other text is read off the same bytes, less any
    NUL, once they count every character that is not whitespace, and only
    a text that fails that count is searched for the offset of its unknown
    character. AUTO reads Han when a byte is a graph's. Pinyin whose
    syllables are all exact keys of _PINYIN_SYLLABLES (NFC, lower case,
    tone marks) is read by one itemgetter, which gives the tokens and, from
    _PINYIN_CODES, the codes. Both hand their codes to parse through
    _HANDOFF, so parse_text reads no code twice. Only pinyin with a miss
    reads syllable by syllable, and a non-str sequence item by item; under
    AUTO such a text is first looked at for a CJK ideograph or 〇 as its
    first character but whitespace, and then read again as Han. A
    toneless that is not a bool is a TypeError, before any other check.
    """
    if toneless.__class__ is not bool:
        raise TypeError(f"toneless must be a bool, not {type(toneless).__name__}")
    han = script_hint is _HAN_HINT
    if han or script_hint is _AUTO_HINT:
        # The encoding drops what is not a graph, NUL aside (byte 0), so a
        # text of graphs alone encodes to as many bytes as it has
        # characters, and one without a graph to none.
        try:
            raw = _charmap_encode(text, "ignore", _CHARMAP)[0]
        except TypeError:  # not a str
            return _tokenize_items(text), False
        if raw and len(raw) == len(text) and 0 not in raw:
            han = True
        elif han or raw and raw.strip(b"\x00"):
            # Han text with whitespace or a miss (AUTO reads Han as soon as
            # one byte is a graph's, not NUL's 0): its graphs are the bytes
            # but 0, and every other character must be whitespace.
            raw = raw.replace(b"\x00", b"")
            if len(raw) < sum(map(len, text.split())):
                offset = next(i for i, ch in enumerate(text)
                              if ch not in _HAN_CHARS and not ch.isspace())
                raise _unknown(offset, text[offset])
            if not raw:
                raise _error(_K.EMPTY_INPUT, 0, "no numeral content in input")
            han = True
        if han:
            # itemgetter of one key gives the value, not a 1-tuple.
            tokens = (
                _itemgetter(*raw)(_BY_RAW) if len(raw) > 1 else (_BY_RAW[raw[0]],)
            )
            _HANDOFF[0] = (tokens, raw.translate(_FOLD))
            return tokens, False
    elif script_hint is not _PINYIN_HINT:
        got = type(script_hint).__name__
        raise TypeError(f"script_hint must be a ScriptHint, not {got}")
    elif not isinstance(text, str):
        raise _not_text(type(text).__name__, "a str under ScriptHint.PINYIN")
    # Pinyin: whitespace-separated syllables.
    syllables = text.split()
    try:
        read = _itemgetter(*syllables)
        read_tokens = read(_PINYIN_SYLLABLES)
    except (KeyError, TypeError):  # a syllable to normalise, or none
        if script_hint is _AUTO_HINT and syllables and unicodedata.name(
                syllables[0][0], "").startswith(_IDEOGRAPHS):
            return _tokenize_impl(text, _HAN_HINT, toneless)
        return _pinyin_items(text, syllables, toneless), True
    if len(syllables) > 1:
        codes = bytes(read(_PINYIN_CODES))
    else:  # itemgetter of one key gives the value, not a 1-tuple
        read_tokens, codes = (read_tokens,), bytes((read(_PINYIN_CODES),))
    _HANDOFF[0] = (read_tokens, codes)
    return read_tokens, True


def _pinyin_items(
    text: str, syllables: list[str], toneless: bool
) -> tuple[Morpheme, ...]:
    """The pinyin syllables of text one at a time, normalised to NFC lower
    case; toneless reads bare syllables too, with "yi" by context. An
    unknown syllable raises UnknownCharacter at its offset in text."""
    read: list[Morpheme] = []
    for k, syllable in enumerate(syllables):
        m = _PINYIN_SYLLABLES.get(syllable)
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
                raise _error(
                    _K.UNKNOWN_CHARACTER,
                    text.find(syllable, start),
                    f"syllable {syllable!r} is not a numeral morpheme",
                )
        read.append(m)
    if not read:
        raise _error(_K.EMPTY_INPUT, 0, "no numeral content in input")
    return tuple(read)


def tokenize(
    text: str,
    script_hint: ScriptHint = ScriptHint.AUTO,
    *,
    toneless: bool = False,
) -> tuple[Morpheme, ...]:
    """Map Han characters or pinyin syllables to morphemes.

    Auto mode chooses Han whenever any numeral character is present, so mixed
    Han/pinyin input fails on the first non-Han run. A text with no numeral
    character is Han too where its first character but whitespace is a CJK
    ideograph or 〇, so 卅 raises UnknownCharacter naming the character 卅,
    not a syllable; any other such text is pinyin. Pinyin matching is tone
    sensitive unless toneless is set, in which case bare syllables are accepted
    and "yi" is read as the 10^8 pivot straight after a digit, as the digit 1
    otherwise.

    text may also be a sequence of str that is not a str: under AUTO and
    HAN it reads as the string of its items, so a whitespace or empty item
    is skipped and any other item that is not a graph raises
    UnknownCharacter at its index. An item that is not a str, a text that
    is not a sequence, a non-str text under PINYIN, a script_hint that is
    not a ScriptHint, or a toneless that is not a bool raises TypeError.
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

# Failures are (lanes, kind, position, message), one per check that fires,
# in walk order; a message names its lane's grammar as {era} and that
# grammar's ceiling as {ceiling}. A lane fails at most once, since a failing
# lane leaves the walk.
_Failures = list[tuple[int, ParseErrorKind, int, str]]
# A rejecting lane's failure as a reader reports it: (kind, position,
# message), its message filled from the lane's reader's table.
_Failure = tuple[ParseErrorKind, int, str]


# The OutOfEraMorpheme message of each morpheme that some era lacks.
_OUT_OF_ERA = {
    _C_LIANG: "the liang variant of 2 is not part of {era} numerals",
    _C_LING: "líng does not occur in {era} numerals",
    _C_YOU: "the conjunction yòu is not part of {era} numerals",
    _C_DAN: "dān is a 13th-century gap word, not part of {era}",
    _C_LALT: "lìng is a 13th-century gap word, not part of {era}",
}

# The link words, the gap words (read as líng) and the conjunction yòu, by
# code. Each follows a pivot and leads to a term, so it stands neither
# before the group's closing pivot nor last. An entry holds the word's
# failure kind and the message of each broken rule: before a closing
# pivot, after no pivot, last in the group.
_LINKS = dict.fromkeys((_C_LING, _C_DAN, _C_LALT), (
    _K.MISPLACED_LING,
    "a gap word must be followed by a digit, not a pivot that closes the group",
    "a gap word stands only between a pivot and a following digit",
    "a trailing gap word marks no gap",
))
_LINKS[_C_YOU] = (
    _K.MISPLACED_YOU,
    "the conjunction must be followed by an additive term, not a group-closing pivot",
    "the conjunction joins a completed compound to a lower term",
    "the conjunction needs a following additive term",
)


# liang's two rules: it never multiplies ten, and never fills a unit slot.
# The message of each place that breaks them, by index: the ten of a term
# (1), an elliptic trailing digit one rank below a hundred (0); after
# another term (2), trailing after a link word (3), before anything but an
# outer pivot (4).
_LIANG_RULES = (
    "the elliptic reading would put liang on the pivot ten",
    "liang never multiplies the pivot ten; only er does",
    "the unit slot of a complex numeral takes er, never liang",
    "a trailing liang after a link word reads as a unit digit, which liang cannot be",
    "standalone liang multiplies an outer pivot only",
)

# The feature bits, one per Features field in field order. A group's bits
# are read off its codes once, when its reading enters the memo.
_F_YOU, _F_LING, _F_DAN, _F_LIANG, _F_ELLIPTIC, _F_LEADING_ONE, _F_INNER_ONE = (
    1 << k for k in range(7)
)
# The Features of every pattern of the bits, indexed by it: only 2**7 exist,
# so parsing never builds one. They are built through this positional
# constructor: the seven flags in field order.
_features = _builder(Features)
_FEATURES = tuple(
    _features(*(bool(bits >> k & 1) for k in range(7))) for bits in range(1 << 7)
)
# [1] before an inner pivot that is an outer pivot's sole multiplier.
_ONE_BEFORE_SOLE = re.compile(rb"\x01[\x15-\x17][\x18\x1c]").search


def _group_bits(g: bytes, first: bool) -> int:
    """The feature bits of codes g, one or more whole groups; first says
    whether g opens the numeral. Ellipsis is a reading, not read here."""
    bits = 0
    if _C_YOU in g:
        bits |= _F_YOU
    if _C_DAN in g or _C_LALT in g:
        bits |= _F_DAN | _F_LING
    elif _C_LING in g:
        bits |= _F_LING
    if _C_LIANG in g:
        bits |= _F_LIANG
    if first and len(g) >= 2 and g[0] == 1 and 21 <= g[1] <= 28:
        bits |= _F_LEADING_ONE
    if 1 in g and _ONE_BEFORE_SOLE(g):
        bits |= _F_INNER_ONE
    return bits


# The slots of the [1] rule: the numeral's first term as a ten or a higher
# inner pivot, either of those as an outer pivot's sole multiplier, or an
# outer pivot; and any later pivot. _Lanes.one[slot + written] is a slot's
# rule with [1] omitted or written. generate reads the same rule, and
# _one_slot, for the head slots, so the renderer writes [1] only where the
# reader accepts it.
_TEN, _HIGH, _SOLE_TEN, _SOLE_HIGH, _OUTER, _LATER = range(0, 12, 2)


def _one_slot(rank: int, sole: bool) -> int:
    """The head slot of the numeral's first term: a ten (rank 1) or a higher
    inner pivot, either as an outer pivot's sole multiplier where sole is
    set, or, at rank 0, a digit that multiplies an outer pivot alone."""
    if not rank:
        return _OUTER
    if sole:
        return _SOLE_TEN if rank == 1 else _SOLE_HIGH
    return _TEN if rank == 1 else _HIGH


def _one_rule(lead: LeadingOnePolicy, inner: OneBeforeInnerMultiplicand,
              slot: int, written: bool) -> str | None:
    """The message of the [1] rule that the two [1] policies break in slot,
    or None."""
    if slot == _LATER:
        return None if written else "{era} writes [1] before a non-initial pivot"
    if (
        slot in (_SOLE_TEN, _SOLE_HIGH)
        and inner is OneBeforeInnerMultiplicand.OMIT
    ):
        return (
            "{era} writes the sole multiplier of an outer pivot bare: "
            "no [1] before it"
        ) if written else None
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


def _grammar(p: EraProfile) -> tuple[object, ...]:
    """What a lane table reads of p, the key of p's table: whether you is
    banned; the ling policy; whether liang and the zero word are admitted;
    whether the 13th-century gap words dan and ling are, as in song-qin
    alone; and the two [1] policies, or None in an early era, which reads no
    [1] rule.

    Profiles that differ only in era name, ceiling or how often they write
    you share a grammar. That makes 2 x 2 x 2 x 2 x 13 = 208 era grammars:
    one early, six [1] pairings without the gap words and six with them.
    """
    return (
        p.you_policy is YouPolicy.FORBIDDEN,
        p.ling_policy,
        p.liang_allowed,
        p.zero_expressible,
        p.era is Era.SONG_QIN,
        None if p.era in EARLY_ERAS
        else (p.leading_one_policy, p.inner_multiplicand_one),
    )


class _Lanes:
    """A set of grammars read together, one bit of an alive mask each.

    Lane k is bit 1 << k, and reads a grammar as _grammar gives it, or the
    lenient grammar for None. A table knows no profile, so it serves every
    profile of its grammars; the caller applies each profile's name and
    ceiling. Every era-dependent check of the walk reads a lane mask built
    here once, or one of two tables of them: banned[code], the lanes whose
    era lacks that morpheme, and one[slot + written], the [1] rule of a
    slot as (lanes, message) pairs from _one_rule, which early-era lanes do
    not read. memo keeps the reading of each group read under these lanes
    (see _walk).
    """

    __slots__ = (
        "banned", "one", "all", "lenient", "zero_bad", "ling_req", "inner_req", "memo",
    )

    def __init__(self, grammars: list[tuple[object, ...] | None]) -> None:
        self.all = (1 << len(grammars)) - 1
        self.lenient = self.zero_bad = self.ling_req = self.inner_req = 0
        banned = [0] * (max(_NOTATION) + 1)
        one: list[dict[str, int]] = [{} for _ in range(_LATER + 2)]
        for k, grammar in enumerate(grammars):
            bit = 1 << k
            if grammar is None:
                self.lenient |= bit
                continue
            no_you, ling, liang, zero, gap_words, ones = grammar
            if ling is LingPolicy.REQUIRED:
                self.ling_req |= bit
            if not zero:
                self.zero_bad |= bit
            lacks = {
                _C_LIANG: not liang,
                _C_LING: ling is LingPolicy.FORBIDDEN,
                _C_YOU: no_you,
                _C_DAN: not gap_words,
                _C_LALT: not gap_words,
            }
            for code, lacked in lacks.items():
                if lacked:
                    banned[code] |= bit
            if ones is None:
                continue
            if ones[1] is OneBeforeInnerMultiplicand.REQUIRE:
                self.inner_req |= bit
            for index, rules in enumerate(one):
                message = _one_rule(*ones, index & ~1, bool(index & 1))
                if message is not None:
                    rules[message] = rules.get(message, 0) | bit
        self.banned = banned
        self.memo: dict[bytes, _Entry] = {}
        self.one = tuple(
            tuple((mask, message) for message, mask in rules.items())
            for rules in one
        )


# The one-lane tables by grammar, None for the lenient one. The grammars
# are finitely many, so a table, once built, is kept.
_TABLES: dict[tuple[object, ...] | None, _Lanes] = {}


def _table(grammar: tuple[object, ...] | None) -> _Lanes:
    """The one-lane table of grammar."""
    lanes = _TABLES.get(grammar)
    if lanes is None:
        lanes = _TABLES[grammar] = _Lanes([grammar])
    return lanes


def _reader(p: EraProfile) -> tuple[_Lanes, tuple[int, ...], Era | None, _Messages]:
    """What parse reads under profile p with: its lane table, the lane's
    ceiling as _walk takes it, the era it reports and a new table of the
    messages its errors give."""
    return _table(_grammar(p)), (p.max_value,), p.era, _Messages(p.era.value, p.max_value)


_LENIENT_MESSAGES = _Messages("the lenient grammar", _LENIENT_MAX)
_LENIENT_READER = (_table(None), (_LENIENT_MAX,), None, _LENIENT_MESSAGES)
_ERA_READERS = {era: _reader(p) for era, p in _PROFILES.items()}

# classify and scan read every era and the lenient grammar in one walk,
# one lane per distinct (grammar, ceiling), so the three early eras share
# one. _FAN_OUT holds each era, its lane bit and the message table of its
# reader in _ERA_READERS, in chronological order.
_era_keys = [(_grammar(p), p.max_value) for p in _PROFILES.values()]
_LANE_KEYS = [*dict.fromkeys(_era_keys), (None, _LENIENT_MAX)]
_ALL_LANES = _Lanes([grammar for grammar, _ in _LANE_KEYS])
_ALL_MAXES = tuple(ceiling for _, ceiling in _LANE_KEYS)
_ALL_FLOOR = min(_ALL_MAXES)
_FAN_OUT = tuple(
    (p.era, 1 << _LANE_KEYS.index(key), _ERA_READERS[p.era][3])
    for key, p in zip(_era_keys, _PROFILES.values())
)
_LENIENT_BIT = _ALL_LANES.lenient
# The accepting eras of every mask of those lanes, in chronological order,
# indexed by the mask: only 2**7 exist, so _read_span never builds a tuple.
_CONSISTENT = tuple(
    tuple(era for era, bit, _ in _FAN_OUT if mask & bit)
    for mask in range(1 << len(_LANE_KEYS))
)


def _break_one(fails: _Failures, lanes: int,
               rules: tuple[tuple[int, str], ...], pos: int) -> int:
    """Record where the lanes break one of rules; returns their mask."""
    broken = 0
    for mask, message in rules:
        bad = lanes & mask
        if bad:
            fails.append((bad, _K.RANK_ORDER_VIOLATION, pos, message))
            broken |= bad
    return broken


def _close(
    L: _Lanes,
    alive: int,
    fails: _Failures,
    diags: list[tuple[int, "str | tuple[int, int]"]],
    lead: tuple[int, int, bool, int] | None,
    sole: bool,
    coeff: int,
    prev_exp: int,
    crossed: bool,
    scale: int,
    closer: int,
) -> tuple[int, int]:
    """Close a myriad group at 10^scale; returns (alive, the group's value).

    lead is the group's first term and sole says whether it is the only
    one; a group without terms is a bare outer pivot at token closer.
    coeff is the sum of the terms. crossed says whether a gap word opens
    the group, linking it to the outer pivot before it.

    The checks that need the group's absolute scale run here, in this order:
    the [1] rule on the numeral's first term (whether an inner pivot is the
    sole multiplier of an outer pivot is known only now) or on a later group
    opened by a bare outer pivot, read from L.one; and cross-group gap links
    against the previous outer pivot, prev_exp (0 before the first group).
    Each lane's ceiling is checked where _walk adds the value to the total.
    """
    pos = lead[3] if lead else closer
    slot = None
    if not lead:
        # A bare outer pivot opens the group (coefficient 1 implicit).
        slot = _LATER if prev_exp else _OUTER
    elif not prev_exp and lead[0] == 1:
        _, exp, written, _ = lead
        # A lone unit digit 1 has a slot only under an outer pivot.
        if exp or scale:
            slot = _one_slot(exp, scale and sole) + written
    rules = L.one[slot] if slot is not None else ()
    if rules:
        alive ^= _break_one(fails, alive, rules, pos)
    if prev_exp:
        top_abs = scale + (lead[1] if lead else 0)
        gap = top_abs != prev_exp - 1
        if gap and not crossed:
            bad = alive & L.ling_req
            if bad:
                fails.append((bad, _K.RANK_ORDER_VIOLATION, pos,
                              f"rank gap after the 10^{prev_exp} pivot needs "
                              f"líng in {{era}}"))
                alive ^= bad
            lenient = alive & L.lenient
            if lenient:
                diags.append((
                    lenient,
                    f"líng missing at the rank gap after the "
                    f"10^{prev_exp} pivot; accepted leniently "
                    f"(outer-pivot líng drop, a known regional elision)",
                ))
        elif not gap and crossed:
            fails.append((alive, _K.MISPLACED_LING, 0,
                          "líng marks a rank gap, but the following rank is "
                          "adjacent to the pivot before it"))
            return 0, 0
    return alive, (coeff if lead else 1) * 10**scale


def _over(maxes: tuple[int, ...], alive: int, fails: _Failures,
          total: int, pos: int) -> int:
    """Fail the lanes of alive whose ceiling total exceeds; returns the rest."""
    bad = alive & sum(1 << lane for lane, mx in enumerate(maxes) if total > mx)
    if bad:
        fails.append((bad, _K.OVERFLOW, pos,
                      "value exceeds the {era} ceiling of {ceiling}"))
    return alive ^ bad


# A group's reading under every lane, as its lane table's memo keeps it:
# (lanes alive once it closes, events, feature bits, exponent of its outer
# pivot or 0, value it adds to the total or 0). events is None, or the
# group's (failures, diagnostics, fork) where it has any. Positions count
# from the group's first token, and a diagnostic whose text shows the
# running total holds the two terms to add to it instead. fork is the
# elliptic reading of a trailing digit, (lanes, value), or None.
_Entry = tuple[int, "tuple[tuple, tuple, tuple[int, int] | None] | None", int, int, int]


def _group(g: bytes, L: _Lanes, prev_exp: int) -> _Entry:
    """Read one myriad group under every lane of L: the miss path of _walk.

    g runs from just after an outer pivot, or from the numeral's start, up
    to and including the next outer pivot; only the last group ends without
    one. prev_exp is the exponent of the outer pivot before g, 0 for the
    first group; that pivot is the token before a later group's first.

    The walk keeps only the group's terms; the rest is read off the codes.
    Every token is consumed or fails the group, so a pending link word is
    the token before, and a gap word at token 0 of a later group is the
    link to the outer pivot before it. A link word is read in one step,
    with the token after it, against its entry in _LINKS. A trailing bare
    digit is the group's last token, so its elliptic reading forks and
    closes there; the main reading closes at the group's outer pivot or, in
    the last group, after its last token.
    """
    m = len(g)
    first_group = not prev_exp
    alive = L.all
    banned = L.banned
    fails: _Failures = []
    diags: list[tuple[int, "str | tuple[int, int]"]] = []
    crossed = not first_group and (g[0] == _C_LING or g[0] >= _C_DAN)
    # The terms: the first as (digit_value, in_group_exp, explicit_one,
    # token_index), the exponent of the last (0 marks the unit slot), how
    # many there are and their sum.
    lead: tuple[int, int, bool, int] | None = None
    above: int | None = None
    terms = coeff = 0
    out = scale = value = 0
    closer: int | None = None
    fork: tuple[int, int] | None = None

    i = 0
    while alive and i < m:
        c = g[i]
        prev = g[i - 1] if i else (20 + prev_exp if prev_exp else 0)
        after_pivot = 21 <= prev <= 28
        bad = alive & banned[c]
        if bad:
            fails.append((bad, _K.OUT_OF_ERA_MORPHEME, i, _OUT_OF_ERA[c]))
            alive ^= bad
            if not alive:
                break

        if c <= 23:
            # A term: a digit times an inner pivot, a bare inner pivot, or
            # a digit with no pivot after it (the unit slot, a trailing
            # elliptic digit, or the multiplier of an outer pivot). k is its
            # rank in the group, 0 for the unit slot.
            explicit = c <= _C_LIANG
            nxt = g[i + 1] if i + 1 < m else None
            if not explicit:
                value, k, step = 1, c - 20, 1
            else:
                if nxt is not None and nxt <= _C_LIANG:
                    fails.append((alive, _K.DIGIT_RUN_WITHOUT_PIVOT, i + 1,
                                  "two digits in direct succession form no numeral"))
                    break
                value = 2 if c == _C_LIANG else c
                if nxt is not None and 21 <= nxt <= 23:
                    k, step = nxt - 20, 2
                else:
                    k, step = 0, 1
            # A pending líng or yòu links this term to the one before it;
            # a gap word before the first term is checked at close. A
            # trailing bare digit after a pivot also reads one rank below
            # the pivot, where that rank, inferred, is 1 or more.
            linked = prev >= _C_LING
            inferred = 0
            if not k and nxt is None and not linked and after_pivot:
                inferred = above - 1 if above is not None else (prev_exp or 1) - 1
            # liang never multiplies ten.
            if c == _C_LIANG and (k == 1 or inferred == 1):
                fails.append((alive, _K.LIANG_BEFORE_SHI, i, _LIANG_RULES[k]))
                break
            if linked and prev != _C_YOU and above is not None and k == above - 1:
                fails.append((alive, _K.MISPLACED_LING, i - 1,
                              "líng marks a rank gap, but these ranks are adjacent"))
                break

            if inferred >= 1:
                # The lanes that demand líng (and the lenient one) read the
                # digit elliptically, the rest as the unit digit; liang,
                # never a unit, only elliptically.
                if c == _C_LIANG:
                    ell = alive
                else:
                    ell = alive & (L.ling_req | L.lenient)
                    lenient = alive & L.lenient
                    if lenient:
                        # Both readings, less the running total.
                        diags.append((
                            lenient,
                            (coeff + value, coeff + value * 10**inferred),
                        ))
                if ell:
                    # The elliptic lanes close the group here.
                    alive ^= ell
                    ell, ell_value = _close(
                        L, ell, fails, diags,
                        lead or (value, inferred, True, i), not terms,
                        coeff + value * 10**inferred, prev_exp, crossed, 0, i,
                    )
                    if ell:
                        fork = (ell, ell_value)
                    if not alive:
                        break
            # liang never fills a unit slot: after another term, trailing
            # after a link word, or before anything but an outer pivot.
            if c == _C_LIANG and not k and (
                lead or (linked if nxt is None else not 24 <= nxt <= 28)
            ):
                why = 2 if lead else 3 if nxt is None else 4
                fails.append((alive, _K.LIANG_IN_UNIT_SLOT, i, _LIANG_RULES[why]))
                break

            if above is not None:
                # A digit-led term that breaks descent reports only that; a
                # bare pivot first reports the missing líng where required.
                # The unit slot is never filled twice: after a unit digit
                # only an outer pivot is not already rejected.
                if not linked and k != above - 1 and (k < above or not explicit):
                    bad = alive & L.ling_req
                    if bad:
                        fails.append((bad, _K.RANK_ORDER_VIOLATION, i,
                                      "rank gap inside the numeral needs líng "
                                      "in {era}"))
                        alive ^= bad
                        if not alive:
                            break
                if k >= above:
                    fails.append((alive, _K.RANK_ORDER_VIOLATION, i + step - 1,
                                  "pivot ranks must descend within a myriad group"))
                    break
            if not explicit:
                if lead or not first_group:
                    rules, lanes = L.one[_LATER], alive
                else:
                    # Without the sole-multiplier escape a bare opening pivot
                    # is already wrong; report it at its own token rather
                    # than at a later symptom.
                    rules = L.one[_one_slot(k, False)]
                    lanes = alive & L.inner_req
                if rules:
                    alive ^= _break_one(fails, lanes, rules, i)
                    if not alive:
                        break
            lead = lead or (value, k, explicit, i)
            above = k
            terms += 1
            coeff += value * 10**k
            i += step
            continue

        if c == 24 or c == 28:  # outer pivot closes the group, and ends it
            scale = c - 20
            if prev_exp and scale >= prev_exp:
                fails.append((alive, _K.RANK_ORDER_VIOLATION, i,
                              "outer pivots must descend across myriad groups"))
                break
            closer = i
            break

        # A link word: a gap word, read as líng, or the conjunction yòu. It
        # must follow a pivot and lead to a term (see _LINKS), so the token
        # after it is read here, before the step that would close the group.
        kind, before_closer, not_after_pivot, last = _LINKS[c]
        if c >= _C_DAN:
            diags.append((alive, f"historical gap word {_NOTATION[c]} read as líng"))
        elif c == _C_LING and first_group and m == 1:  # standalone zero
            bad = alive & L.zero_bad
            if bad:
                fails.append((bad, _K.MISPLACED_LING, 0,
                              "líng alone does not name zero in {era}"))
                alive ^= bad
            out = alive
            break
        if not after_pivot:
            message = not_after_pivot
        elif i == m - 1:
            message = last
        elif g[i + 1] == 24 or g[i + 1] == 28:
            message = before_closer
        else:
            i += 1
            continue
        fails.append((alive, kind, i, message))
        break
    else:  # the last group's walk ran to its end
        out = alive
        if alive and terms:
            closer = m - 1
    if closer is not None:
        out, value = _close(
            L, alive, fails, diags, lead, terms == 1, coeff, prev_exp, crossed,
            scale, closer,
        )

    events = (tuple(fails), tuple(diags), fork) if fails or diags or fork else None
    return out, events, _group_bits(g, first_group), scale, value


# The memos of all lane tables store at most _GROUP_MEMO readings in all,
# counted in _STORED; past that, new groups are read every time. A group
# longer than _LONGEST_GROUP tokens is rejected by every lane and never
# stored. A valid group has at most four terms of at most two tokens (the
# unit term has one) and three link words between them; then either its
# outer pivot, or, in a last group that skips the thousands adjacent to the
# pivot before it, a leading link word: 一億零三千有五百有六十有七 ends in
# such a group of eleven.
_GROUP_MEMO = 1 << 18
_LONGEST_GROUP = 11
_STORED = [0]

# Splitting codes at this table's code 24 splits them at every outer pivot:
# [10^8] (28) reads as [10^4] (24).
_OUTER_AS_24 = bytes.maketrans(b"\x1c", b"\x18")


def _ambiguous(total: int, unit: int, elliptic: int) -> str:
    return (
        f"AmbiguousElliptic: trailing digit reads as the unit ({total + unit}) "
        f"or as an elliptic rank ({total + elliptic}); the contemporary "
        f"elliptic reading is returned"
    )


def _walk(
    codes: bytes, L: _Lanes, maxes: tuple[int, ...], floor: int
) -> tuple[int, int, int, int, _Failures, list[tuple[int, str]], Features]:
    """Read codes under every lane of L, one myriad group at a time; maxes
    holds each lane's ceiling, and floor the lowest of them.

    Returns (alive, total, elliptic, closed, fails, diagnostics, features):
    the mask of the lanes that accept with the unit reading, and their
    value; the mask of the lanes that accept with the elliptic reading, and
    theirs; the failures in walk order, in the shape a memo entry keeps them
    (see _Failures) but with positions counted from the numeral's first
    token; the diagnostics, each tagged with the mask of the lanes it
    belongs to; and the Features of the codes. The token flags count every
    token, read or not; elliptic is that of the lane the features report,
    the one lane of a one-lane table or the lenient lane of _ALL_LANES, so
    it is False where that lane rejects. Every lane of L is in exactly one of
    alive, elliptic and one failure. The walk stops once no lane is alive,
    so a value means something only where its mask is not empty.

    A group's reading under every lane depends only on its codes and the
    exponent of the outer pivot before it (none for the first group); the
    codes also say whether it is the last, which alone may end without an
    outer pivot. _group reads it, and L.memo keeps it under those codes
    preceded by that pivot. The reading of the lanes alive as the group
    opens is that reading cut down to them. Only what needs the running
    total is done here per call: each lane's ceiling and the diagnostics
    that show the total.
    """
    alive = L.all
    fails: _Failures = []
    diags: list[tuple[int, str]] = []
    memo = L.memo
    n = len(codes)
    total = prev_exp = end = bits = elliptic = closed = 0
    # Each group runs up to and including an outer pivot; the last may end
    # without one, and past the last outer pivot there may be none.
    for head in codes.translate(_OUTER_AS_24).split(b"\x18"):
        if end == n:
            break
        start = end
        end = start + len(head) + 1
        if end > n:
            end = n
        key = codes[start - 1:end] if start else codes[:end]
        entry = memo.get(key)
        if entry is None:
            entry = _group(key[1:] if start else key, L, prev_exp)
            if _STORED[0] < _GROUP_MEMO and end - start <= _LONGEST_GROUP:
                memo[key] = entry
                _STORED[0] += 1
        out, events, group_bits, scale, value = entry
        bits |= group_bits
        if events is not None:
            failures, group_diags, fork = events
            for mask, kind, at, message in failures:
                mask &= alive
                if mask:
                    fails.append((mask, kind, start + at, message))
            for mask, text in group_diags:
                mask &= alive
                if mask:
                    if text.__class__ is not str:
                        text = _ambiguous(total, *text)
                    diags.append((mask, text))
            if fork is not None:  # the last group's elliptic reading
                elliptic = fork[0] & alive
                if elliptic:
                    closed = total + fork[1]
                    if closed > floor:
                        elliptic = _over(maxes, elliptic, fails, closed, end - 1)
                    # The features report the one lane of a one-lane table,
                    # else the lenient lane.
                    if elliptic & (L.lenient or L.all):
                        bits |= _F_ELLIPTIC
        alive &= out
        total += value
        if total > floor and alive:
            alive = _over(maxes, alive, fails, total, end - 1)
        if not alive:
            # The features count every token, read or not.
            bits |= _group_bits(codes[end:], False)
            break
        prev_exp = scale
    return alive, total, elliptic, closed, fails, diags, _FEATURES[bits]


def _failure(fails: _Failures, bit: int, messages: _Messages) -> _Failure:
    """The failure of the rejecting lane bit, from its one entry in fails,
    with its message from the lane's reader's table."""
    for lanes, kind, position, template in fails:
        if lanes & bit:
            return kind, position, messages[template]


# Each morpheme's code, keyed by the morpheme (which hashes by identity).
_CODE_OF = {m: m.code for m in MORPHEMES}


def _codes(toks: tuple[Morpheme, ...]) -> bytes:
    """The codes of toks: handed over by the tokenizer for the tuple it
    returned last, else one lookup per token in _CODE_OF, mapped in C. A
    token that is not a morpheme misses the table: TypeError."""
    handed = _HANDOFF[0]
    if handed[0] is toks:
        return handed[1]
    try:
        if len(toks) > 1:
            return bytes(_itemgetter(*toks)(_CODE_OF))
        return bytes((_CODE_OF[toks[0]],))
    except (KeyError, TypeError):
        raise TypeError("parse expects a sequence of numeral Morphemes") from None


def _walk_all(
    toks: tuple[Morpheme, ...]
) -> tuple[int, int, int, int, _Failures, list[tuple[int, str]], Features]:
    """One walk of toks under every era and the lenient grammar.

    Returns _walk's result over the lanes of _ALL_LANES: its features are
    the lenient grammar's, or, where it rejects, the token flags with
    elliptic False.
    """
    return _walk(_codes(toks), _ALL_LANES, _ALL_MAXES, _ALL_FLOOR)


def _read_span(
    toks: tuple[Morpheme, ...]
) -> tuple[ParseOutcome | None, _Failure | None, tuple[Era, ...], Features]:
    """What scan keeps of a span, from one walk: (outcome, failure, eras, features).

    outcome is the outcome parse(toks, None) returns, or failure the (kind,
    position, message) of the error it raises, read off the lenient lane's
    failure with its message from _LENIENT_MESSAGES; no error is built. eras
    are the accepting eras in chronological order, as classify reports them,
    one of the shared tuples of _CONSISTENT. The features are _walk_all's.
    """
    alive, total, elliptic, closed, fails, diags, features = _walk_all(toks)
    consistent = _CONSISTENT[alive | elliptic]
    if elliptic & _LENIENT_BIT:
        total = closed
    elif not alive & _LENIENT_BIT:
        failure = _failure(fails, _LENIENT_BIT, _LENIENT_MESSAGES)
        return None, failure, consistent, features
    diagnostics = tuple([text for mask, text in diags if mask & _LENIENT_BIT])
    outcome = _outcome(total, None, features, diagnostics, toks)
    return outcome, None, consistent, features


def parse(tokens: object, era: object = None) -> ParseOutcome:
    """Parse a morpheme sequence to its value under one era grammar.

    era may be an Era, an EraProfile, a loose era name, or None/"lenient" for
    the lenient grammar (see ParseOutcome), which accepts more than the era
    grammars. Raises NumeralParseError on rejection.
    """
    # An exact tuple, as render_integer and tokenize give, is taken as is;
    # anything else, a tuple subclass included, is read through its tokens
    # attribute where it has one.
    if tokens.__class__ is tuple:
        toks: tuple[Morpheme, ...] = tokens  # type: ignore[assignment]
    else:
        try:
            toks = tuple(getattr(tokens, "tokens", tokens))
        except TypeError:
            raise TypeError(
                "parse expects a sequence of numeral Morphemes, "
                f"not {tokens.__class__.__name__}"
            ) from None
    # Only a custom profile builds a reader: a name resolves to its era's
    # own profile, which reads through that era's reader.
    if era.__class__ is Era:
        reader = _ERA_READERS[era]  # type: ignore[index]
    elif era is None or isinstance(era, str) and era.strip().lower() == "lenient":
        reader = _LENIENT_READER
    else:
        p = era_profile(era)  # type: ignore[arg-type]
        reader = _ERA_READERS[p.era] if p is _PROFILES[p.era] else _reader(p)
    lanes, maxes, era_checked, messages = reader
    if not toks:
        raise _error(_K.EMPTY_INPUT, 0, "no tokens to parse")
    alive, total, elliptic, closed, fails, diags, features = _walk(
        _codes(toks), lanes, maxes, maxes[0]
    )
    # One lane: it accepts with one reading or fails once.
    if elliptic:
        total = closed
    elif not alive:
        raise _error(*_failure(fails, lanes.all, messages))
    diagnostics = tuple([text for _, text in diags]) if diags else ()
    return _outcome(total, era_checked, features, diagnostics, toks)


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
