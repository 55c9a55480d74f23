"""Numerals in phrases: before classifiers and measure words, as ordinals,
as currency amounts and as durations.

A numeral incorporated before a classifier or measure word is always a full
form; elliptic names are not meant to be incorporated before classifiers,
so render_quantity refuses the elliptic option. A bare 2 counted before a
measure word surfaces as liang where the profile has liang, except before
the measure word liang itself, where euphony keeps er; ordinals only ever
take er.

The phrase renderers read their era and options through generate._plan,
as render_integer does, and render their numerals through
generate._render_full, so they refuse in render_integer's order: the
options and the era first, then what the phrase allows (StyleNotAllowed:
render_quantity and render_ordinal take the contemporary profile only,
render_quantity no elliptic option), then the value. A phrase is a
NumeralPhrase of numerals, UnitWords and linking morphemes.

No render or parse uses this module, so the package loads it on first use
of one of its names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DEFAULT_OPTIONS,
    LIANG,
    LING,
    Era,
    EraProfile,
    RenderOptions,
    Script,
    surface,
)
from .generate import (
    _PLANS,
    AllZeroAmount,
    MonthOutOfRange,
    NumeralExpression,
    StyleNotAllowed,
    ValueOutOfRange,
    _expression,
    _options,
    _plan,
    _render_full,
)

__all__ = [
    "NumeralPhrase",
    "UnitWord",
    "render_currency",
    "render_duration",
    "render_ordinal",
    "render_quantity",
    "unit_word",
]


@dataclass(frozen=True, slots=True)
class UnitWord:
    """A measure word, classifier, or rank word appearing next to a numeral."""

    traditional: str
    simplified: str
    pinyin: str

    def __post_init__(self) -> None:
        # Every field's type first, then its text: a form that is empty or
        # whitespace alone writes no classifier, and 3 would read as a bare 三.
        forms = [getattr(self, name) for name in self.__slots__]
        for name, form in zip(self.__slots__, forms):
            if not isinstance(form, str):
                raise TypeError(f"{name} must be a str, not {type(form).__name__}")
        for form in forms:
            if not form.strip():
                raise ValueError(f"a classifier needs a written form, not {form!r}")

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        """The form in the field script's value names; TOKENS reads pinyin."""
        if script.__class__ is not Script:
            raise TypeError(f"expected a Script, not {type(script).__name__}")
        return getattr(self, "pinyin" if script is Script.TOKENS else script.value)


@dataclass(frozen=True, slots=True)
class NumeralPhrase:
    """A numeral (or several) combined with unit words and linking terms."""

    items: tuple[object, ...]  # NumeralExpression | UnitWord | Morpheme

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        parts: list[str] = []
        for item in self.items:
            if isinstance(item, (NumeralExpression, UnitWord)):
                parts.append(item.text(script))
            else:
                parts.append(surface(item, script))
        if script is Script.PINYIN or script is Script.TOKENS:
            return " ".join(parts)
        return "".join(parts)

    def __str__(self) -> str:
        return self.text()


# ---------------------------------------------------------------------------
# Unit words
# ---------------------------------------------------------------------------

YUAN = UnitWord("元", "元", "yuán")
JIAO = UnitWord("角", "角", "jiǎo")
FEN = UnitWord("分", "分", "fēn")
NIAN = UnitWord("年", "年", "nián")
GE = UnitWord("個", "个", "ge")
YUE = UnitWord("月", "月", "yuè")
DI = UnitWord("第", "第", "dì")

_UNIT_WORDS: dict[str, UnitWord] = {}
for _u in (
    YUAN,
    JIAO,
    FEN,
    NIAN,
    GE,
    YUE,
    DI,
    UnitWord("層", "层", "céng"),
    UnitWord("兩", "两", "liǎng"),
    UnitWord("斤", "斤", "jīn"),
    UnitWord("人", "人", "rén"),
):
    _UNIT_WORDS[_u.traditional] = _u
    _UNIT_WORDS[_u.simplified] = _u


def unit_word(text: "str | UnitWord") -> UnitWord:
    """Resolve a classifier/measure word, falling back to the text itself.

    Anything other than a str or a UnitWord is a TypeError, and a str that
    is empty or whitespace alone, which writes no classifier, is refused by
    UnitWord itself with a ValueError.
    """
    if isinstance(text, UnitWord):
        return text
    if not isinstance(text, str):
        raise TypeError(f"expected a str or a UnitWord, not {type(text).__name__}")
    return _UNIT_WORDS.get(text) or UnitWord(text, text, text)


# ---------------------------------------------------------------------------
# Phrase renders
# ---------------------------------------------------------------------------


def render_quantity(
    n: int,
    classifier: str,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions | None = None,
) -> NumeralPhrase:
    """Render "numeral + classifier", always with the full (incorporable) form.

    A numeral that is just the digit 2 surfaces as liang before the
    classifier where the profile has liang, except before the 50-gram
    measure word liang itself, where euphony keeps er.
    """
    profile, rules = _plan(era, opts)
    if profile.era is not Era.CONTEMPORARY:
        raise StyleNotAllowed("classifier quantity phrases are rendered in the contemporary profile only")
    if _options(opts).elliptic is True:
        raise StyleNotAllowed("elliptic numerals cannot be incorporated before a classifier")
    clf = unit_word(classifier)
    render = _render_full if clf.traditional in ("兩", "两") else _counted
    return NumeralPhrase(items=(render(n, profile, rules), clf))


def render_ordinal(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    with_prefix: bool = True,
) -> NumeralPhrase:
    """Render an ordinal; only er ever expresses 2 in ordinals.

    A with_prefix that is not a bool is a TypeError, before any other check.
    """
    if with_prefix.__class__ is not bool:
        raise TypeError(f"with_prefix must be a bool, not {type(with_prefix).__name__}")
    profile, rules = _plan(era, DEFAULT_OPTIONS)  # AlwaysEr in every slot
    if profile.era is not Era.CONTEMPORARY:
        raise StyleNotAllowed("ordinals are rendered in the contemporary profile only")
    if _integer(n) < 1:
        raise ValueOutOfRange(f"ordinal positions start at 1, got {n}")
    num = _render_full(n, profile, rules)
    return NumeralPhrase(items=(DI, num) if with_prefix else (num,))


def render_currency(
    yuan: int, jiao: int = 0, fen: int = 0, terse: bool = False
) -> NumeralPhrase:
    """Render a yuan/jiao/fen amount with Ling linking over the skipped rank.

    With terse=True the final word fen is dropped where it is unambiguous:
    after a jiao compound or after the linking Ling. A terse that is not a
    bool is a TypeError, before any other check.
    """
    if terse.__class__ is not bool:
        raise TypeError(f"terse must be a bool, not {type(terse).__name__}")
    if _integer(yuan) < 0:
        raise ValueOutOfRange(f"yuan must be non-negative, got {yuan}")
    if not 0 <= _integer(jiao) <= 9:
        raise ValueOutOfRange(f"jiao must be a single digit, got {jiao}")
    if not 0 <= _integer(fen) <= 9:
        raise ValueOutOfRange(f"fen must be a single digit, got {fen}")
    if yuan == 0 and jiao == 0 and fen == 0:
        raise AllZeroAmount("a currency amount needs at least one non-zero component")

    items: list[object] = []
    if yuan:
        items.extend((_component(yuan), YUAN))
    linked = False
    if jiao:
        items.extend((_component(jiao), JIAO))
    elif fen and yuan:
        items.append(LING)
        linked = True
    if fen:
        items.append(_component(fen))
        if not (terse and (jiao or linked)):
            items.append(FEN)
    return NumeralPhrase(items=tuple(items))


def render_duration(years: int, months: int) -> NumeralPhrase:
    """Render "N years and M months"; the idiom requires Ling at the junction."""
    if _integer(years) < 1:
        raise ValueOutOfRange(f"years must be at least 1, got {years}")
    if not 1 <= _integer(months) <= 11:
        raise MonthOutOfRange(f"months must lie in 1..11, got {months}")
    return NumeralPhrase(
        items=(_component(years), NIAN, LING, _component(months), GE, YUE)
    )


def _integer(n: object) -> int:
    """n if it is an int, checked before the callers compare it, so that any
    other type is a ValueOutOfRange as in render_integer; None is not 0."""
    if not isinstance(n, int):
        raise ValueOutOfRange(f"expected a non-negative integer, got {n!r}")
    return n


def _counted(n: int, profile: EraProfile, rules: int) -> NumeralExpression:
    """n as the count before a measure word.

    A bare 2 is liang where the profile has liang; any other n, and 2 under
    a profile without liang, is the profile's own rendering. Every n passes
    the rendering's checks first, so 2 is refused wherever 3 would be.
    """
    full = _render_full(n, profile, rules)
    if n == 2 and profile.liang_allowed:
        return _expression((LIANG,), profile.era, False, profile)
    return full


def _component(n: int) -> NumeralExpression:
    """A numeral incorporated before a measure word; 2 surfaces as liang."""
    return _counted(n, *_PLANS[Era.CONTEMPORARY])
