"""Rendering of integers and measured quantities as Han numeral expressions.

The core operation is render_integer: split the value into myriad groups
(units, x10^4, x10^8), render each group's coefficient with descending
[digit][pivot] compounds, and join groups with their outer pivots. Everything
era-dependent is driven by the EraProfile:

* gap marking: in ling-required eras exactly one Ling precedes an emitted
  digit whose rank is not one below the preceding pivot's rank, no matter how
  many zero digits the gap spans; in earlier eras gaps are plain juxtaposition;
* [1] before pivots: omitted at the head, required everywhere, or required
  except before a numeral-initial ten, with the compound [10^k][10^4] class
  kept bare where the era demands it;
* the conjunction You at hundreds-tens and tens-units junctions;
* the liang variant of 2 where the whole multiplier of a pivot >= 10^2 is 2;
* elliptic names that drop a final inner pivot recoverable from the digit
  before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEFAULT_OPTIONS,
    Era,
    EraProfile,
    LIANG,
    LING,
    LeadingOnePolicy,
    LingPolicy,
    MORPHEMES,
    Morpheme,
    MorphemeKind,
    OneBeforeInnerMultiplicand,
    RenderOptions,
    Script,
    TwoStyle,
    YOU,
    YouPolicy,
    digit,
    era_profile,
    pivot,
    surface,
)
from .parse import parse

__all__ = [
    "AllZeroAmount",
    "EllipsisUnavailable",
    "MonthOutOfRange",
    "NumeralExpression",
    "NumeralPhrase",
    "RenderError",
    "StyleNotAllowed",
    "UnitWord",
    "ValueOutOfRange",
    "ZeroInexpressible",
    "render_currency",
    "render_duration",
    "render_elliptic",
    "render_integer",
    "render_ordinal",
    "render_quantity",
    "unit_word",
]


class RenderError(ValueError):
    """Base class for all generation failures."""


class ValueOutOfRange(RenderError):
    """The value lies outside the era's supported range."""


class ZeroInexpressible(RenderError):
    """The era has no standalone word for zero."""


class StyleNotAllowed(RenderError):
    """A stylistic option (liang, elliptic, you, quantity, ordinal) the era forbids."""


class EllipsisUnavailable(RenderError):
    """The value's full form has no droppable final pivot."""


class AllZeroAmount(RenderError):
    """A currency amount with all components zero."""


class MonthOutOfRange(RenderError):
    """A duration month count outside 1..11."""


# ---------------------------------------------------------------------------
# Expressions and phrases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NumeralExpression:
    """A rendered numeral: an ordered morpheme sequence plus era and flags.

    elliptic marks a form whose final pivot was dropped; such forms cannot be
    incorporated before classifiers or measure words, so incorporable is
    always the negation of elliptic.
    """

    tokens: tuple[Morpheme, ...]
    era: Era
    elliptic: bool = False

    @property
    def incorporable(self) -> bool:
        return not self.elliptic

    @property
    def value(self) -> int:
        """The integer this expression denotes, read under its own era."""
        return parse(self.tokens, self.era).value

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        return _join_surface(self.tokens, script)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class UnitWord:
    """A measure word, classifier, or rank word appearing next to a numeral."""

    traditional: str
    simplified: str
    pinyin: str

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        if script is Script.SIMPLIFIED:
            return self.simplified
        if script is Script.PINYIN:
            return self.pinyin
        if script is Script.TOKENS:
            return self.pinyin
        return self.traditional


@dataclass(frozen=True, slots=True)
class NumeralPhrase:
    """A numeral (or several) combined with unit words and linking terms."""

    items: tuple[object, ...]  # NumeralExpression | UnitWord | Morpheme

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        parts: list[str] = []
        for item in self.items:
            if isinstance(item, NumeralExpression):
                parts.append(item.text(script))
            elif isinstance(item, UnitWord):
                parts.append(item.text(script))
            else:
                parts.append(surface(item, script))
        if script is Script.PINYIN or script is Script.TOKENS:
            return " ".join(parts)
        return "".join(parts)

    def __str__(self) -> str:
        return self.text()


# Each script's written form of every generable morpheme, read straight off
# the table; the parse-only gap words are absent.
_WRITTEN = {
    script: {
        m: surface(m, script) for m in MORPHEMES if m.traditional is not None
    }.__getitem__
    for script in (Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN)
}


def _join_surface(tokens: tuple[Morpheme, ...], script: Script) -> str:
    if script is Script.TOKENS:
        # Bracket tokens run together; word tokens get surrounding spaces.
        pieces = [m.notation for m in tokens]
        return " ".join(
            "".join(p if p.startswith("[") else f" {p} " for p in pieces).split()
        )
    sep = " " if script is Script.PINYIN else ""
    try:
        return sep.join(map(_WRITTEN[script], tokens))
    except KeyError:
        pass
    # A parse-only gap word has no written form: surface() raises for it.
    return sep.join([surface(m, script) for m in tokens])


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
    """Resolve a classifier/measure word, falling back to the text itself."""
    if isinstance(text, UnitWord):
        return text
    found = _UNIT_WORDS.get(text)
    if found is not None:
        return found
    return UnitWord(text, text, text)


# ---------------------------------------------------------------------------
# Group rendering
# ---------------------------------------------------------------------------

_LIANG_MIN_EXP = 2  # liang only ever multiplies pivots of rank 10^2 and above


def _one_is_explicit(
    profile: EraProfile,
    *,
    pivot_exp: int,
    is_numeral_head: bool,
    sole_multiplicand: bool,
    leading_ten_one: bool,
) -> bool:
    """Decide whether a coefficient-1 compound spells out the [1].

    sole_multiplicand means the compound is the entire multiplier of an outer
    pivot (the [10][10^4] / [10^2][10^4] / [10^3][10^4] shapes).
    """
    if sole_multiplicand and (
        profile.inner_multiplicand_one is OneBeforeInnerMultiplicand.OMIT
    ):
        return False
    policy = profile.leading_one_policy
    if is_numeral_head:
        if policy is LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
            return False
        if policy is LeadingOnePolicy.REQUIRED_ALL:
            return True
        # REQUIRED_EXCEPT_LEADING_TEN
        if pivot_exp == 1:
            return leading_ten_one
        return True
    # Non-head coefficient-1 compounds are spelled out in every era; the
    # early inscriptional eras never reach here (their renders also spell
    # non-head ones, matching the strips' qian/bai usage).
    return True


@lru_cache(maxsize=1 << 18)
def _group_tokens(
    era: Era,
    coeff: int,
    scale: int,
    is_head: bool,
    prefer_liang: bool,
    leading_ten_one: bool,
    you_on: bool,
) -> tuple[Morpheme, ...]:
    """Tokens for one myriad group: coefficient 1..9999 plus its outer pivot.

    scale is the group's outer exponent (0, 4, or 8); internal Ling links and
    You junctions are included, so callers only add the between-group links.
    """
    profile = era_profile(era)
    ling_on = profile.ling_policy is LingPolicy.REQUIRED
    closer = pivot(scale) if scale else None

    if coeff == 1 and closer is not None:
        explicit = _one_is_explicit(
            profile,
            pivot_exp=scale,
            is_numeral_head=is_head,
            sole_multiplicand=False,
            leading_ten_one=leading_ten_one,
        )
        return (digit(1), closer) if explicit else (closer,)

    d3, rem = divmod(coeff, 1000)
    d2, rem = divmod(rem, 100)
    d1, d0 = divmod(rem, 10)
    digits = ((3, d3), (2, d2), (1, d1))
    compound_count = sum(1 for _, d in digits if d)
    sole = closer is not None and compound_count == 1 and d0 == 0

    out: list[Morpheme] = []
    first = True
    prev_exp: int | None = None
    for exp, d in digits:
        if not d:
            continue
        if prev_exp is not None:
            if exp != prev_exp - 1:  # rank gap inside the group
                if ling_on:
                    out.append(LING)
            elif you_on and prev_exp == 2:
                out.append(YOU)
        if d == 1:
            if _one_is_explicit(
                profile,
                pivot_exp=exp,
                is_numeral_head=is_head and first,
                sole_multiplicand=sole,
                leading_ten_one=leading_ten_one,
            ):
                out.append(digit(1))
        elif d == 2 and prefer_liang and exp >= _LIANG_MIN_EXP:
            out.append(LIANG)
        else:
            out.append(digit(d))
        out.append(pivot(exp))
        prev_exp = exp
        first = False
    if d0:
        if prev_exp is not None:
            if prev_exp != 1:
                if ling_on:
                    out.append(LING)
                elif you_on and prev_exp == 2:
                    out.append(YOU)
            elif you_on:
                out.append(YOU)
        whole_group_two = coeff == 2 and closer is not None
        if d0 == 2 and prefer_liang and whole_group_two:
            out.append(LIANG)
        else:
            out.append(digit(d0))
    if closer is not None:
        out.append(closer)
    return tuple(out)


def _resolve_you(profile: EraProfile, opts: RenderOptions) -> bool:
    policy = profile.you_policy
    if policy is YouPolicy.FORBIDDEN:
        if opts.use_you:
            raise StyleNotAllowed(
                f"the conjunction you is not used in {profile.era.value} integer names"
            )
        return False
    if opts.use_you is None:
        return policy is YouPolicy.OPTIONAL_DEFAULT_ON
    return opts.use_you


def _check_style(
    profile: EraProfile, opts: RenderOptions, elliptic: bool
) -> None:
    if opts.two_style is not TwoStyle.ALWAYS_ER and not profile.liang_allowed:
        raise StyleNotAllowed(
            f"the liang variant of 2 is not part of {profile.era.value} numerals"
        )
    if elliptic and not profile.elliptic_allowed:
        raise StyleNotAllowed(
            f"elliptic names are not part of {profile.era.value} numerals"
        )


# ---------------------------------------------------------------------------
# Public renders
# ---------------------------------------------------------------------------


def render_integer(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions = DEFAULT_OPTIONS,
) -> NumeralExpression:
    """Render a non-negative integer under an era profile and options."""
    profile = era_profile(era)
    if opts.elliptic:
        return render_elliptic(n, profile, opts)
    _check_style(profile, opts, False)
    return _render_full(n, profile, opts)


def _render_full(
    n: int, profile: EraProfile, opts: RenderOptions
) -> NumeralExpression:
    if not isinstance(n, int) or n < 0:
        raise ValueOutOfRange(f"expected a non-negative integer, got {n!r}")
    if n > profile.max_value:
        raise ValueOutOfRange(
            f"{n} exceeds the {profile.era.value} ceiling of {profile.max_value}"
        )
    if n == 0:
        if not profile.zero_expressible:
            raise ZeroInexpressible(
                f"{profile.era.value} numerals have no standalone zero word"
            )
        return NumeralExpression(tokens=(LING,), era=profile.era)

    you_on = _resolve_you(profile, opts)
    prefer_liang = opts.two_style is TwoStyle.PREFER_LIANG
    ling_on = profile.ling_policy is LingPolicy.REQUIRED

    g8, rem = divmod(n, 10**8)
    g4, g0 = divmod(rem, 10**4)
    tokens: list[Morpheme] = []
    prev_scale: int | None = None
    is_head = True
    for coeff, scale in ((g8, 8), (g4, 4), (g0, 0)):
        if not coeff:
            continue
        if prev_scale is not None and ling_on:
            # Highest digit of this group vs the successor rank of the
            # previous outer pivot: any shortfall is one gap, one Ling.
            high_exp = 3 if coeff >= 1000 else 2 if coeff >= 100 else 1 if coeff >= 10 else 0
            if scale + high_exp != prev_scale - 1:
                tokens.append(LING)
        tokens.extend(
            _group_tokens(
                profile.era,
                coeff,
                scale,
                is_head,
                prefer_liang,
                opts.leading_ten_one,
                you_on,
            )
        )
        prev_scale = scale
        is_head = False
    return NumeralExpression(tokens=tuple(tokens), era=profile.era)


def render_elliptic(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions = DEFAULT_OPTIONS,
) -> NumeralExpression:
    """Render the elliptic (final-pivot-dropped) name for n.

    Defined only when the full form ends [pivot][digit][inner pivot] with the
    two pivots on adjacent ranks, so a listener recovers the dropped rank from
    the rank said before the digit.
    """
    profile = era_profile(era)
    _check_style(profile, opts, True)
    full = _render_full(n, profile, opts)
    t = full.tokens
    if (
        len(t) < 3
        or t[-1].kind is not MorphemeKind.PIVOT
        or t[-1].exponent not in (1, 2, 3)
        or t[-2].kind not in (MorphemeKind.DIGIT, MorphemeKind.LIANG)
        or t[-3].kind is not MorphemeKind.PIVOT
        or t[-3].exponent != (t[-1].exponent or 0) + 1
    ):
        raise EllipsisUnavailable(
            f"{n} has no droppable final pivot: its name does not end with a "
            f"digit one rank below the preceding pivot"
        )
    return NumeralExpression(tokens=t[:-1], era=profile.era, elliptic=True)


def render_quantity(
    n: int,
    classifier: str,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions | None = None,
) -> NumeralPhrase:
    """Render "numeral + classifier", always with the full (incorporable) form.

    A numeral that is just the digit 2 surfaces as liang before the
    classifier, except before the 50-gram measure word liang itself, where
    euphony keeps er.
    """
    profile = era_profile(era)
    if profile.era is not Era.CONTEMPORARY:
        raise StyleNotAllowed("classifier quantity phrases are rendered in the contemporary profile only")
    if opts is None:
        opts = DEFAULT_OPTIONS
    if opts.elliptic:
        raise StyleNotAllowed("elliptic numerals cannot be incorporated before a classifier")
    clf = unit_word(classifier)
    if n == 2 and clf.traditional not in ("兩", "两"):
        num = NumeralExpression(tokens=(LIANG,), era=profile.era)
    else:
        num = _render_full(n, profile, opts)
    return NumeralPhrase(items=(num, clf))


def render_ordinal(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    with_prefix: bool = True,
) -> NumeralPhrase:
    """Render an ordinal; only er ever expresses 2 in ordinals."""
    profile = era_profile(era)
    if profile.era is not Era.CONTEMPORARY:
        raise StyleNotAllowed("ordinals are rendered in the contemporary profile only")
    if n < 1:
        raise ValueOutOfRange(f"ordinal positions start at 1, got {n}")
    num = _render_full(n, profile, DEFAULT_OPTIONS)  # AlwaysEr in every slot
    items = (DI, num) if with_prefix else (num,)
    return NumeralPhrase(items=items)


def render_currency(
    yuan: int, jiao: int = 0, fen: int = 0, terse: bool = False
) -> NumeralPhrase:
    """Render a yuan/jiao/fen amount with Ling linking over the skipped rank.

    With terse=True the final word fen is dropped where it is unambiguous:
    after a jiao compound or after the linking Ling.
    """
    if yuan < 0:
        raise ValueOutOfRange(f"yuan must be non-negative, got {yuan}")
    if not 0 <= jiao <= 9:
        raise ValueOutOfRange(f"jiao must be a single digit, got {jiao}")
    if not 0 <= fen <= 9:
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
    if years < 1:
        raise ValueOutOfRange(f"years must be at least 1, got {years}")
    if not 1 <= months <= 11:
        raise MonthOutOfRange(f"months must lie in 1..11, got {months}")
    return NumeralPhrase(
        items=(_component(years), NIAN, LING, _component(months), GE, YUE)
    )


def _component(n: int) -> NumeralExpression:
    """A numeral incorporated before a measure word; 2 surfaces as liang."""
    if n == 2:
        return NumeralExpression(tokens=(LIANG,), era=Era.CONTEMPORARY)
    return _render_full(n, era_profile(Era.CONTEMPORARY), DEFAULT_OPTIONS)
