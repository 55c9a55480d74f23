"""Rendering of integers and measured quantities as Han numeral expressions.

The core operation is render_integer: split the value into myriad groups
(units, x10^4, x10^8), render each group's coefficient with descending
[digit][pivot] compounds, and join groups with their outer pivots. Everything
era-dependent comes from the EraProfile the caller passes (standard or
custom), resolved once per render, together with the options, into a few
group rules; each group is rendered, and cached, from those rules alone:

* gap marking: in ling-required eras exactly one Ling precedes an emitted
  digit whose rank is not one below the preceding pivot's rank, no matter how
  many zero digits the gap spans, within a group or across groups; in earlier
  eras gaps are plain juxtaposition;
* [1] before pivots: omitted at the head, required everywhere, or required
  except before a numeral-initial ten, with the compound [10^k][10^4] class
  kept bare where the era demands it;
* the conjunction You at hundreds-tens and tens-units junctions;
* the liang variant of 2 where the whole multiplier of a pivot >= 10^2 is 2;
* elliptic names that drop a final inner pivot recoverable from the digit
  before it.

Each group's tokens are memoized in a plain dict keyed by one int packed
from the group rules, the coefficient, the group's scale and the previous
group's. It holds at most _GROUP_MEMO (262,144) groups, about 174 bytes
each, so about 46 MB at its bound; past the bound new groups are rendered
every time and not stored. The eight eras' groups of a sweep of every
value up to 10^6, plus samples up to each ceiling, fit under it.

A rendered NumeralExpression keeps the profile that rendered it, so its value
reads the tokens back under that same profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    always the negation of elliptic. profile is the profile that rendered the
    expression, set by the renderers and None for one built by hand; it takes
    no part in equality, hashing or repr.
    """

    tokens: tuple[Morpheme, ...]
    era: Era
    elliptic: bool = False
    profile: EraProfile | None = field(default=None, compare=False, repr=False)

    @property
    def incorporable(self) -> bool:
        return not self.elliptic

    @property
    def value(self) -> int:
        """The integer this expression denotes, read under the profile that
        rendered it, or under its era's standard profile."""
        return parse(self.tokens, self.profile or self.era).value

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

# The rules a group render reads, resolved once per call from (profile,
# options) into one small int, so the group cache keys on ints only.
_LING_ON = 1  # one Ling per rank gap
_YOU_ON = 2  # You at hundreds-tens, tens-units and hundreds-units junctions
_LIANG_ON = 4  # liang for a 2 that is the whole multiplier of a pivot >= 10^2
_HEAD_ONE = 8  # [1] before the numeral's first pivot above ten
_HEAD_TEN_ONE = 16  # [1] before a numeral-initial ten
_BARE_SOLE = 32  # no [1] before the first group's sole inner multiplier

# Enum members read once here: a member read at call time costs more than the
# rest of resolving the rules.
_LING_REQUIRED = LingPolicy.REQUIRED
_YOU_FORBIDDEN = YouPolicy.FORBIDDEN
_YOU_DEFAULT_ON = YouPolicy.OPTIONAL_DEFAULT_ON
_OMIT_BEFORE_HIGHEST = LeadingOnePolicy.OMIT_BEFORE_HIGHEST
_REQUIRED_ALL = LeadingOnePolicy.REQUIRED_ALL
_EXCEPT_LEADING_TEN = LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN
_INNER_OMIT = OneBeforeInnerMultiplicand.OMIT
_ALWAYS_ER = TwoStyle.ALWAYS_ER
_PREFER_LIANG = TwoStyle.PREFER_LIANG


# The rendered groups, keyed by _render_full's packed (coefficient, rules,
# scale, previous scale). Past _GROUP_MEMO entries new groups are rendered
# every time and not stored.
_GROUP_MEMO = 1 << 18
_group_memo: dict[int, tuple[Morpheme, ...]] = {}


def _group_tokens(
    rules: int, coeff: int, scale: int, prev_scale: int | None
) -> tuple[Morpheme, ...]:
    """Tokens for one myriad group: coefficient 1..9999 plus its outer pivot.

    scale is the group's outer exponent (0, 4, or 8) and prev_scale the
    previous group's, None for the numeral's first group. The Ling that
    links this group to the previous one is included, as are the internal
    Ling links and You junctions, so callers only concatenate groups.
    """
    d3, rem = divmod(coeff, 1000)
    d2, rem = divmod(rem, 100)
    d1, d0 = divmod(rem, 10)
    sole = scale and not d0 and (d3 > 0) + (d2 > 0) + (d1 > 0) == 1
    # Exponents count from this group's scale, and the previous group's outer
    # pivot is the term before the first one, so a gap across groups takes one
    # Ling just like a gap inside a group. None: the numeral's first term.
    prev_exp = None if prev_scale is None else prev_scale - scale
    out: list[Morpheme] = []
    for exp, d in ((3, d3), (2, d2), (1, d1), (0, d0)):
        if not d:
            continue
        if prev_exp is not None:
            if exp != prev_exp - 1 and rules & _LING_ON:
                out.append(LING)
            elif prev_exp <= 2 and rules & _YOU_ON:
                out.append(YOU)
        # The pivot this digit multiplies: its own, or the outer pivot when
        # the digit is the group's whole coefficient.
        mult = exp or (scale if coeff < 10 else 0)
        # [1] is written before every pivot except the numeral's first, which
        # the head rules decide unless it is a bare sole inner multiplicand.
        if d == 1 and mult:
            if prev_exp is not None or (
                not (sole and rules & _BARE_SOLE)
                and rules & (_HEAD_TEN_ONE if mult == 1 else _HEAD_ONE)
            ):
                out.append(digit(1))
        elif d == 2 and mult >= 2 and rules & _LIANG_ON:
            out.append(LIANG)
        else:
            out.append(digit(d))
        if exp:
            out.append(pivot(exp))
        prev_exp = exp
    if scale:
        out.append(pivot(scale))
    return tuple(out)


def _resolve_you(profile: EraProfile, opts: RenderOptions) -> bool:
    policy = profile.you_policy
    if policy is _YOU_FORBIDDEN:
        if opts.use_you:
            raise StyleNotAllowed(
                f"the conjunction you is not used in {profile.era.value} integer names"
            )
        return False
    if opts.use_you is None:
        return policy is _YOU_DEFAULT_ON
    return opts.use_you


def _rules(profile: EraProfile, opts: RenderOptions) -> int:
    """The group rules of one render; raises where the era forbids You."""
    lead = profile.leading_one_policy
    rules = _YOU_ON if _resolve_you(profile, opts) else 0
    if profile.ling_policy is _LING_REQUIRED:
        rules |= _LING_ON
    if opts.two_style is _PREFER_LIANG:
        rules |= _LIANG_ON
    if lead is not _OMIT_BEFORE_HIGHEST:
        rules |= _HEAD_ONE
    if lead is _REQUIRED_ALL or (lead is _EXCEPT_LEADING_TEN and opts.leading_ten_one):
        rules |= _HEAD_TEN_ONE
    if profile.inner_multiplicand_one is _INNER_OMIT:
        rules |= _BARE_SOLE
    return rules


def _check_style(
    profile: EraProfile, opts: RenderOptions, elliptic: bool
) -> None:
    if opts.two_style is not _ALWAYS_ER and not profile.liang_allowed:
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
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
        return NumeralExpression((LING,), profile.era, False, profile)

    rules = _rules(profile, opts)
    g8, rem = divmod(n, 10**8)
    g4, g0 = divmod(rem, 10**4)
    tokens: list[Morpheme] = []
    prev_scale: int | None = None
    for coeff, scale in ((g8, 8), (g4, 4), (g0, 0)):
        if coeff:
            key = (coeff << 6 | rules) << 8 | scale << 4 | (prev_scale or 0)
            group = _group_memo.get(key)
            if group is None:
                group = _group_tokens(rules, coeff, scale, prev_scale)
                if len(_group_memo) < _GROUP_MEMO:
                    _group_memo[key] = group
            tokens += group
            prev_scale = scale
    return NumeralExpression(tuple(tokens), profile.era, False, profile)


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
        or t[-3].exponent != t[-1].exponent + 1
    ):
        raise EllipsisUnavailable(
            f"{n} has no droppable final pivot: its name does not end with a "
            f"digit one rank below the preceding pivot"
        )
    return NumeralExpression(t[:-1], profile.era, True, profile)


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
