"""Shared inventory for Han numeral transduction.

Holds the one table of the closed morpheme set: nine digits, the liang
variant of 2, five multiplicative pivots, the gap word ling, the conjunction
you, and two parse-only gap words. Each row carries everything the other
modules need to know about a morpheme: its value or rank, the parser's
integer code, its token notation, its written forms per script, and the
graphs read as it on input. The tokenizer, the scanner, the parser and the
surface writer all read this table; none keeps a copy of the inventory.

The module also defines the scripts and the one era table: a row per era
holds its label, period and loose names and the profile that parameterizes
both generation and parsing. The rank scale is 10, 10^2, 10^3 (inner
pivots) and 10^4, 10^8 (outer pivots). Numbers are named by myriads: each
outer pivot takes a coefficient of 1..9999 built from the inner pivots, so
no further rank is ever needed below 10^12, and none exists in the table.

Era and Script hash by identity, so the era- and script-keyed tables of
every module are read at C speed. _builder gives the other modules a
positional constructor for their frozen result records that fills the slots
with plain stores on a same-layout twin class and then gives the record its
own class, for their hot paths; the public constructors stay the dataclass
ones, with their defaults and checks, so a caller that builds, copies,
pickles or replaces a record sees no change.

>>> pivot(4).traditional, pivot(4).simplified, pivot(4).pinyin
('萬', '万', 'wàn')
>>> Morpheme(MorphemeKind.PIVOT, exponent=4) is pivot(4)
True
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum, unique
from typing import Any, Callable

__all__ = [
    "CHRONOLOGY",
    "EARLY_ERAS",
    "Era",
    "EraProfile",
    "LeadingOnePolicy",
    "LingPolicy",
    "MORPHEMES",
    "Morpheme",
    "MorphemeKind",
    "NonGenerableMorpheme",
    "OUTER_EXPONENTS",
    "OneBeforeInnerMultiplicand",
    "RANK_EXPONENTS",
    "RenderOptions",
    "Script",
    "TwoStyle",
    "YouPolicy",
    "DAN",
    "LIANG",
    "LING",
    "LING_ALT",
    "YOU",
    "digit",
    "era_profile",
    "pivot",
    "surface",
    "token_notation",
]


class NonGenerableMorpheme(ValueError):
    """A parse-only morpheme was asked for in a Han or pinyin script."""


def _builder(cls: type, invalid: str = "") -> Callable[..., Any]:
    """A positional constructor for the frozen slotted dataclass cls.

    It takes every field in order, with no defaults. It makes the instance
    as a twin class with cls's slots and no __setattr__, stores each field
    with a plain attribute store, which the interpreter turns into a slot
    store, and then sets its __class__ to cls, which CPython allows between
    classes of one slot layout. The frozen __init__ instead sets each field
    by name through object.__setattr__. The record is the one the
    dataclass constructor builds from the same values. invalid is an
    expression over the field names that holds when the values break the
    class's __post_init__ check; the builder then calls __post_init__, so
    the check raises its own error.

    A class whose __slots__ are not exactly its field names, in order, or
    whose layout differs from the twin's (say, through a base with a
    __dict__), is a TypeError here, when the builder is made, not when it
    first builds.
    """
    names = [f.name for f in fields(cls)]
    slots = vars(cls).get("__slots__")
    if slots is None or tuple(slots) != tuple(names):
        raise TypeError(
            f"_builder needs a slotted dataclass whose __slots__ are its "
            f"fields {tuple(names)}; {cls.__name__} has __slots__ {slots!r}"
        )
    twin = type(f"_{cls.__name__}Twin", (), {"__slots__": slots})
    object.__new__(twin).__class__ = cls  # TypeError if the layouts differ
    scope: dict[str, Any] = {"_new": object.__new__, "_twin": twin, "_cls": cls}
    body = ["    self = _new(_twin)"]
    body += [f"    self.{name} = {name}" for name in names]
    body.append("    self.__class__ = _cls")
    if invalid:
        body.append(f"    if {invalid}:\n        self.__post_init__()")
    body.append("    return self")
    exec(f"def build({', '.join(names)}):\n" + "\n".join(body), scope)
    build = scope["build"]
    build.__qualname__ = f"_builder({cls.__name__})"
    return build


RANK_EXPONENTS: tuple[int, ...] = (1, 2, 3, 4, 8)
OUTER_EXPONENTS: frozenset[int] = frozenset({4, 8})


# ---------------------------------------------------------------------------
# Morphemes
# ---------------------------------------------------------------------------


@unique
class MorphemeKind(Enum):
    DIGIT = "digit"
    LIANG = "liang"        # the variant surface form of 2
    PIVOT = "pivot"
    LING = "ling"          # rank-gap link; also the standalone zero word
    YOU = "you"            # additive conjunction of the early inscriptions
    DAN = "dan"            # historical gap link, parse-only
    LING_ALT = "ling-alt"  # the "another" graph used as a gap link, parse-only


class Morpheme:
    """One numeral morpheme: a row of the closed inventory table.

    Morpheme(kind, value=..., exponent=...) returns that row's single
    instance and raises ValueError for any combination the table lacks, so
    equality is identity. Digits carry a value, pivots an exponent.

    code is the parser's integer code: digits by value, liang 11, pivots
    20 + exponent, the link and junction words from 31 up. traditional,
    simplified and pinyin are the generated surfaces; the two parse-only gap
    words have none in Han script, but keep their pinyin syllable for input.
    graphs holds every Han character read as the morpheme on input.
    """

    __slots__ = (
        "kind",
        "value",
        "exponent",
        "code",
        "notation",
        "traditional",
        "simplified",
        "pinyin",
        "graphs",
    )

    kind: MorphemeKind
    value: int | None
    exponent: int | None
    code: int
    notation: str
    traditional: str | None
    simplified: str | None
    pinyin: str
    graphs: tuple[str, ...]

    def __new__(
        cls,
        kind: MorphemeKind,
        value: int | None = None,
        exponent: int | None = None,
    ) -> "Morpheme":
        try:
            return _INVENTORY[kind, value, exponent]
        except KeyError:
            raise ValueError(
                f"no {getattr(kind, 'value', kind)} morpheme with value={value!r}, "
                f"exponent={exponent!r}: digits take 1..9, pivots the exponents "
                f"{RANK_EXPONENTS}, liang only 2, the words neither"
            ) from None

    def __reduce__(self) -> tuple[object, ...]:
        return Morpheme, (self.kind, self.value, self.exponent)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("morphemes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return self.notation


def _row(
    kind: MorphemeKind,
    value: int | None,
    exponent: int | None,
    code: int,
    notation: str,
    traditional: str | None,
    simplified: str | None,
    pinyin: str,
    input_only: str = "",
) -> Morpheme:
    han = (traditional, simplified, *input_only)
    graphs = tuple(dict.fromkeys(g for g in han if g))
    m = object.__new__(Morpheme)
    for name, field in zip(
        Morpheme.__slots__,
        (kind, value, exponent, code, notation, traditional, simplified, pinyin, graphs),
    ):
        object.__setattr__(m, name, field)
    return m


_K = MorphemeKind

# kind, value, exponent, code, notation, traditional, simplified, pinyin
# (citation tone; no sandhi is applied in any context), input-only graphs.
MORPHEMES: tuple[Morpheme, ...] = (
    _row(_K.DIGIT, 1, None, 1, "[1]", "一", "一", "yī"),
    _row(_K.DIGIT, 2, None, 2, "[2]", "二", "二", "èr"),
    _row(_K.DIGIT, 3, None, 3, "[3]", "三", "三", "sān"),
    _row(_K.DIGIT, 4, None, 4, "[4]", "四", "四", "sì"),
    _row(_K.DIGIT, 5, None, 5, "[5]", "五", "五", "wǔ"),
    _row(_K.DIGIT, 6, None, 6, "[6]", "六", "六", "liù"),
    _row(_K.DIGIT, 7, None, 7, "[7]", "七", "七", "qī"),
    _row(_K.DIGIT, 8, None, 8, "[8]", "八", "八", "bā"),
    _row(_K.DIGIT, 9, None, 9, "[9]", "九", "九", "jiǔ"),
    _row(_K.LIANG, 2, None, 11, "[2v]", "兩", "两", "liǎng"),
    _row(_K.PIVOT, None, 1, 21, "[10]", "十", "十", "shí"),
    _row(_K.PIVOT, None, 2, 22, "[10^2]", "百", "百", "bǎi"),
    _row(_K.PIVOT, None, 3, 23, "[10^3]", "千", "千", "qiān"),
    _row(_K.PIVOT, None, 4, 24, "[10^4]", "萬", "万", "wàn"),
    _row(_K.PIVOT, None, 8, 28, "[10^8]", "億", "亿", "yì"),
    _row(_K.LING, None, None, 31, "líng", "零", "零", "líng"),
    _row(_K.YOU, None, None, 32, "yòu", "有", "有", "yòu", "又"),
    _row(_K.DAN, None, None, 33, "dān", None, None, "dān", "單单"),
    _row(_K.LING_ALT, None, None, 34, "lìng", None, None, "lìng", "另"),
)

_INVENTORY: dict[tuple[MorphemeKind, int | None, int | None], Morpheme] = {
    (m.kind, m.value, m.exponent): m for m in MORPHEMES
}

LIANG = Morpheme(MorphemeKind.LIANG, value=2)
LING = Morpheme(MorphemeKind.LING)
YOU = Morpheme(MorphemeKind.YOU)
DAN = Morpheme(MorphemeKind.DAN)
LING_ALT = Morpheme(MorphemeKind.LING_ALT)


def digit(value: int) -> Morpheme:
    """The digit morpheme for value 1..9."""
    return Morpheme(MorphemeKind.DIGIT, value=value)


def pivot(exponent: int) -> Morpheme:
    """The pivot morpheme for 10^exponent; rejects unknown ranks."""
    return Morpheme(MorphemeKind.PIVOT, exponent=exponent)


def token_notation(m: Morpheme) -> str:
    """Bracket notation used for token-level display: [5], [10^4], líng, yòu."""
    return m.notation


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


@unique
class Script(Enum):
    TRADITIONAL = "traditional"
    SIMPLIFIED = "simplified"
    PINYIN = "pinyin"
    TOKENS = "tokens"

    # Members are singletons that compare by identity: hash them by identity
    # too, in C, rather than by Enum's Python-level hash of the name.
    __hash__ = object.__hash__


def surface(morpheme: Morpheme, script: Script) -> str:
    """Written form of one morpheme in one script.

    Token notation is defined for every morpheme; the Han and pinyin scripts
    cover only generable morphemes and raise NonGenerableMorpheme for the
    parse-only gap words. A script that is not a Script raises TypeError.
    """
    if script is Script.TOKENS:
        return morpheme.notation
    if script.__class__ is not Script:
        raise TypeError(f"expected a Script, not {type(script).__name__}")
    if morpheme.traditional is None:
        raise NonGenerableMorpheme(
            f"{morpheme.notation} is recognized on input only and has no "
            f"generation surface"
        )
    if script is Script.TRADITIONAL:
        return morpheme.traditional
    if script is Script.SIMPLIFIED:
        return morpheme.simplified  # type: ignore[return-value]
    return morpheme.pinyin


# ---------------------------------------------------------------------------
# Era profiles
# ---------------------------------------------------------------------------


@unique
class Era(Enum):
    """The eight profiled stages, in chronological order."""

    SHANG_ORACLE = "shang-oracle"
    ZHOU_BRONZE = "zhou-bronze"
    WARRING_STATES = "warring-states"
    SUANSHUSHU = "suanshushu"
    DUNHUANG = "dunhuang"
    NINE_CHAPTERS = "nine-chapters"
    SONG_QIN = "song-qin"
    CONTEMPORARY = "contemporary"

    # See Script.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return _ERAS[self][0]

    @property
    def period(self) -> str:
        return _ERAS[self][1]

    @classmethod
    def from_string(cls, name: str) -> "Era":
        """Resolve a user-supplied era name, tolerating case and separators."""
        key = name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
        try:
            return _ERA_ALIASES[key]
        except KeyError:
            known = ", ".join(e.value for e in cls)
            raise ValueError(f"unknown era {name!r}; expected one of: {known}") from None


CHRONOLOGY: tuple[Era, ...] = tuple(Era)

# Eras whose script fuses digit and pivot into one graph, so [1]-usage before
# pivots is unrecoverable; parsing accepts both shapes everywhere.
EARLY_ERAS: frozenset[Era] = frozenset(
    {Era.SHANG_ORACLE, Era.ZHOU_BRONZE, Era.WARRING_STATES}
)


@unique
class YouPolicy(Enum):
    FORBIDDEN = "forbidden"
    OPTIONAL_DEFAULT_OFF = "optional-default-off"
    OPTIONAL_DEFAULT_ON = "optional-default-on"


@unique
class LingPolicy(Enum):
    FORBIDDEN = "forbidden"   # rank gaps are plain juxtaposition
    REQUIRED = "required"     # one ling per rank gap, no more, no fewer


@unique
class LeadingOnePolicy(Enum):
    # [1] before every pivot except the numeral's first; no exception.
    OMIT_BEFORE_HIGHEST = "omit-before-highest"
    # [1] before every pivot including the numeral's first, even a leading ten.
    REQUIRED_ALL = "required-all"
    # [1] before every pivot, but optional before a numeral-initial ten.
    REQUIRED_EXCEPT_LEADING_TEN = "required-except-leading-ten"


@unique
class OneBeforeInnerMultiplicand(Enum):
    """[1] before an inner pivot that is the sole multiplier of an outer pivot."""

    OMIT = "omit"       # [10][10^4], [10^2][10^4], [10^3][10^4]
    REQUIRE = "require"  # [1][10][10^4] and so on, subject to leading-ten rules


@dataclass(frozen=True, slots=True)
class EraProfile:
    """Everything era-dependent about naming an integer."""

    era: Era
    you_policy: YouPolicy
    ling_policy: LingPolicy
    leading_one_policy: LeadingOnePolicy
    inner_multiplicand_one: OneBeforeInnerMultiplicand
    liang_allowed: bool
    elliptic_allowed: bool
    zero_expressible: bool
    max_value: int


_Y = YouPolicy
_G = LingPolicy
_L = LeadingOnePolicy
_I = OneBeforeInnerMultiplicand

# One row per era, in chronological order: label, period, the loose names
# Era.from_string accepts besides the id, then EraProfile's fields after era:
# you_policy, ling_policy, leading_one_policy, inner_multiplicand_one,
# liang_allowed, elliptic_allowed, zero_expressible, max_value.
_ERAS: dict[Era, tuple[Any, ...]] = {
    Era.SHANG_ORACLE: (
        "Shang oracle bones", "13th to 11th centuries BCE", ("shang", "oracle"),
        _Y.OPTIONAL_DEFAULT_OFF, _G.FORBIDDEN, _L.OMIT_BEFORE_HIGHEST, _I.OMIT,
        False, False, False, 10**8 - 1,
    ),
    Era.ZHOU_BRONZE: (
        "Zhou bronze inscriptions", "11th to 5th centuries BCE", ("zhou", "bronze"),
        _Y.OPTIONAL_DEFAULT_ON, _G.FORBIDDEN, _L.OMIT_BEFORE_HIGHEST, _I.OMIT,
        False, False, False, 10**8 - 1,
    ),
    Era.WARRING_STATES: (
        "Warring States inscriptions", "5th to 3rd centuries BCE", ("warring",),
        _Y.OPTIONAL_DEFAULT_OFF, _G.FORBIDDEN, _L.OMIT_BEFORE_HIGHEST, _I.OMIT,
        False, False, False, 10**8 - 1,
    ),
    Era.SUANSHUSHU: (
        "Suan shu shu bamboo strips", "early 2nd century BCE", ("sss",),
        _Y.FORBIDDEN, _G.FORBIDDEN, _L.OMIT_BEFORE_HIGHEST, _I.OMIT,
        False, False, False, 10**8 - 1,
    ),
    Era.DUNHUANG: (
        "Dunhuang manuscripts", "1st to 10th centuries CE", (),
        _Y.FORBIDDEN, _G.FORBIDDEN, _L.REQUIRED_EXCEPT_LEADING_TEN, _I.OMIT,
        False, False, False, 10**8 - 1,
    ),
    Era.NINE_CHAPTERS: (
        "Nine Chapters received text", "7th century CE redaction", ("nine",),
        _Y.FORBIDDEN, _G.FORBIDDEN, _L.REQUIRED_ALL, _I.REQUIRE,
        False, False, False, 10**8 - 1,
    ),
    Era.SONG_QIN: (
        "Song mathematical usage", "13th century CE", ("song", "qin"),
        _Y.FORBIDDEN, _G.REQUIRED, _L.REQUIRED_ALL, _I.REQUIRE,
        False, False, False, 10**12 - 1,
    ),
    Era.CONTEMPORARY: (
        "Contemporary standard", "20th century onward", ("modern",),
        _Y.FORBIDDEN, _G.REQUIRED, _L.REQUIRED_EXCEPT_LEADING_TEN, _I.REQUIRE,
        True, True, True, 10**12 - 1,
    ),
}

# Era.from_string's keys: each id without its hyphen, and each loose name.
_ERA_ALIASES: dict[str, Era] = {
    name: e for e, row in _ERAS.items() for name in (e.value.replace("-", ""), *row[2])
}

_PROFILES: dict[Era, EraProfile] = {
    era: EraProfile(era, *row[3:]) for era, row in _ERAS.items()
}


def era_profile(era: Era | EraProfile | str) -> EraProfile:
    """The frozen profile for an era.

    Accepts the enum, a profile (returned as is) or a loose era name; any
    other type raises TypeError.
    """
    if era.__class__ is Era:
        return _PROFILES[era]  # type: ignore[index]
    if isinstance(era, EraProfile):
        return era
    if isinstance(era, str):
        return _PROFILES[Era.from_string(era)]
    raise TypeError(
        f"expected an Era, an EraProfile or an era name, not {type(era).__name__}"
    )


# ---------------------------------------------------------------------------
# Render options
# ---------------------------------------------------------------------------


@unique
class TwoStyle(Enum):
    ALWAYS_ER = "er"
    PREFER_LIANG = "liang"
    # Recitation style: er in every slot, like ALWAYS_ER, but only legal where
    # the era recognizes the liang variant at all.
    READING = "reading"


@dataclass(frozen=True, slots=True)
class RenderOptions:
    """Caller-controlled rendering choices.

    use_you: None defers to the era default; True demands the conjunction and
    is rejected where the profile forbids it. leading_ten_one is honored only
    under profiles where [1] before a numeral-initial ten is optional and is
    ignored elsewhere.
    """

    script: Script = Script.TRADITIONAL
    two_style: TwoStyle = TwoStyle.ALWAYS_ER
    use_you: bool | None = None
    elliptic: bool = False
    leading_ten_one: bool = False


DEFAULT_OPTIONS = RenderOptions()
