"""Shared inventory for Han numeral transduction.

Holds the one table of the closed morpheme set: nine digits, the liang
variant of 2, five multiplicative pivots, the gap word ling, the conjunction
you, and two parse-only gap words. Each row carries everything the other
modules need to know about a morpheme: its value or rank, the parser's
integer code, its token notation, its written forms per script, and the
graphs read as it on input. The tokenizer, the scanner, the parser and the
surface writer all read this table; none keeps a copy of the inventory.

The module also defines the scripts and the eight era profiles that
parameterize both generation and parsing. The rank scale is 10, 10^2, 10^3
(inner pivots) and 10^4, 10^8 (outer pivots). Numbers are named by myriads:
each outer pivot takes a coefficient of 1..9999 built from the inner pivots,
so no further rank is ever needed below 10^12, and none exists in the table.

>>> pivot(4).traditional, pivot(4).simplified, pivot(4).pinyin
('萬', '万', 'wàn')
>>> Morpheme(MorphemeKind.PIVOT, exponent=4) is pivot(4)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

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


def surface(morpheme: Morpheme, script: Script) -> str:
    """Written form of one morpheme in one script.

    Token notation is defined for every morpheme; the Han and pinyin scripts
    cover only generable morphemes and raise NonGenerableMorpheme for the
    parse-only gap words.
    """
    if script is Script.TOKENS:
        return morpheme.notation
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

    @property
    def label(self) -> str:
        return _ERA_LABELS[self]

    @property
    def period(self) -> str:
        return _ERA_PERIODS[self]

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

_ERA_LABELS: dict[Era, str] = {
    Era.SHANG_ORACLE: "Shang oracle bones",
    Era.ZHOU_BRONZE: "Zhou bronze inscriptions",
    Era.WARRING_STATES: "Warring States inscriptions",
    Era.SUANSHUSHU: "Suan shu shu bamboo strips",
    Era.DUNHUANG: "Dunhuang manuscripts",
    Era.NINE_CHAPTERS: "Nine Chapters received text",
    Era.SONG_QIN: "Song mathematical usage",
    Era.CONTEMPORARY: "Contemporary standard",
}

_ERA_PERIODS: dict[Era, str] = {
    Era.SHANG_ORACLE: "13th to 11th centuries BCE",
    Era.ZHOU_BRONZE: "11th to 5th centuries BCE",
    Era.WARRING_STATES: "5th to 3rd centuries BCE",
    Era.SUANSHUSHU: "early 2nd century BCE",
    Era.DUNHUANG: "1st to 10th centuries CE",
    Era.NINE_CHAPTERS: "7th century CE redaction",
    Era.SONG_QIN: "13th century CE",
    Era.CONTEMPORARY: "20th century onward",
}

_ERA_ALIASES: dict[str, Era] = {e.value.replace("-", ""): e for e in Era}
_ERA_ALIASES.update(
    {
        "shang": Era.SHANG_ORACLE,
        "oracle": Era.SHANG_ORACLE,
        "zhou": Era.ZHOU_BRONZE,
        "bronze": Era.ZHOU_BRONZE,
        "warring": Era.WARRING_STATES,
        "sss": Era.SUANSHUSHU,
        "ninechapters": Era.NINE_CHAPTERS,
        "nine": Era.NINE_CHAPTERS,
        "songqin": Era.SONG_QIN,
        "song": Era.SONG_QIN,
        "qin": Era.SONG_QIN,
        "modern": Era.CONTEMPORARY,
    }
)

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


_PROFILES: dict[Era, EraProfile] = {
    Era.SHANG_ORACLE: EraProfile(
        era=Era.SHANG_ORACLE,
        you_policy=YouPolicy.OPTIONAL_DEFAULT_OFF,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.OMIT_BEFORE_HIGHEST,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.ZHOU_BRONZE: EraProfile(
        era=Era.ZHOU_BRONZE,
        you_policy=YouPolicy.OPTIONAL_DEFAULT_ON,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.OMIT_BEFORE_HIGHEST,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.WARRING_STATES: EraProfile(
        era=Era.WARRING_STATES,
        you_policy=YouPolicy.OPTIONAL_DEFAULT_OFF,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.OMIT_BEFORE_HIGHEST,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.SUANSHUSHU: EraProfile(
        era=Era.SUANSHUSHU,
        you_policy=YouPolicy.FORBIDDEN,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.OMIT_BEFORE_HIGHEST,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.DUNHUANG: EraProfile(
        era=Era.DUNHUANG,
        you_policy=YouPolicy.FORBIDDEN,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.NINE_CHAPTERS: EraProfile(
        era=Era.NINE_CHAPTERS,
        you_policy=YouPolicy.FORBIDDEN,
        ling_policy=LingPolicy.FORBIDDEN,
        leading_one_policy=LeadingOnePolicy.REQUIRED_ALL,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.REQUIRE,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**8 - 1,
    ),
    Era.SONG_QIN: EraProfile(
        era=Era.SONG_QIN,
        you_policy=YouPolicy.FORBIDDEN,
        ling_policy=LingPolicy.REQUIRED,
        leading_one_policy=LeadingOnePolicy.REQUIRED_ALL,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.REQUIRE,
        liang_allowed=False,
        elliptic_allowed=False,
        zero_expressible=False,
        max_value=10**12 - 1,
    ),
    Era.CONTEMPORARY: EraProfile(
        era=Era.CONTEMPORARY,
        you_policy=YouPolicy.FORBIDDEN,
        ling_policy=LingPolicy.REQUIRED,
        leading_one_policy=LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN,
        inner_multiplicand_one=OneBeforeInnerMultiplicand.REQUIRE,
        liang_allowed=True,
        elliptic_allowed=True,
        zero_expressible=True,
        max_value=10**12 - 1,
    ),
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
