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

render_integer keeps one render plan per era, eight at most: the era's
standard profile and group rules under the options it last rendered with,
reused while callers pass that same options object, with the plan's ceiling
and the era. A custom profile, an era name or elliptic options take no plan.
A plain int of one or two groups within the plan's ceiling is read straight
from the group memo, its groups' tuples concatenated; every other value, and
a group not yet in the memo, goes through _render_full, which checks the
value, then the style, in that order, and concatenates its groups' tuples
the same way. text() reads each token's written form with one
operator.itemgetter over the script's table.

A rendered NumeralExpression keeps the profile that rendered it, so its value
reads the tokens back under that same profile. The renders build it through
core's positional builder, which stores its fields with plain slot stores
on a same-layout twin and then sets its class; the public constructor stays
the dataclass one, so a caller that builds, copies or replaces an
expression sees no change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter as _itemgetter

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
    _builder,
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


# The renders build expressions through this positional constructor:
# (tokens, era, elliptic, profile).
_expression = _builder(NumeralExpression)


@dataclass(frozen=True, slots=True)
class UnitWord:
    """A measure word, classifier, or rank word appearing next to a numeral."""

    traditional: str
    simplified: str
    pinyin: str

    def text(self, script: Script = Script.TRADITIONAL) -> str:
        if script is Script.TRADITIONAL:
            return self.traditional
        if script is Script.SIMPLIFIED:
            return self.simplified
        if script is Script.PINYIN or script is Script.TOKENS:
            return self.pinyin
        raise TypeError(f"expected a Script, not {type(script).__name__}")


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


# Each script's separator and written form of every generable morpheme, read
# straight off the table; the parse-only gap words are absent.
_WRITTEN = {
    script: (
        " " if script is Script.PINYIN else "",
        {m: surface(m, script) for m in MORPHEMES if m.traditional is not None},
    )
    for script in (Script.TRADITIONAL, Script.SIMPLIFIED, Script.PINYIN)
}
# Enum members read once here: on CPython 3.11 each member read at call time
# costs about a fifth of what text() of a short numeral does.
_TOKENS = Script.TOKENS


def _join_surface(tokens: tuple[Morpheme, ...], script: Script) -> str:
    if script is _TOKENS:
        # Bracket tokens run together; word tokens get surrounding spaces.
        pieces = [m.notation for m in tokens]
        return " ".join(
            "".join(p if p.startswith("[") else f" {p} " for p in pieces).split()
        )
    try:
        sep, written = _WRITTEN[script]
        # One lookup per token in C; itemgetter of one key gives the value,
        # not a 1-tuple, so a single token is read on its own.
        if len(tokens) > 1:
            return sep.join(_itemgetter(*tokens)(written))
        return written[tokens[0]]
    except (KeyError, TypeError, IndexError):
        pass
    # A parse-only gap word has no written form, and a value that is not a
    # Script, hashable or not, none: surface() raises for either. No tokens
    # join to the empty string.
    sep = " " if script is Script.PINYIN else ""
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
# Not rules: the options demand You where the profile forbids it.
# _render_full raises for it once the value has passed its checks.
_YOU_BANNED = -1

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


def _rules(profile: EraProfile, opts: RenderOptions) -> int:
    """The group rules of one render, or _YOU_BANNED."""
    policy = profile.you_policy
    if policy is YouPolicy.FORBIDDEN:
        if opts.use_you:
            return _YOU_BANNED
        rules = 0
    elif opts.use_you is None:
        rules = _YOU_ON if policy is YouPolicy.OPTIONAL_DEFAULT_ON else 0
    else:
        rules = _YOU_ON if opts.use_you else 0
    lead = profile.leading_one_policy
    if profile.ling_policy is LingPolicy.REQUIRED:
        rules |= _LING_ON
    if opts.two_style is TwoStyle.PREFER_LIANG:
        rules |= _LIANG_ON
    if lead is not LeadingOnePolicy.OMIT_BEFORE_HIGHEST:
        rules |= _HEAD_ONE
    if lead is LeadingOnePolicy.REQUIRED_ALL or (
        lead is LeadingOnePolicy.REQUIRED_EXCEPT_LEADING_TEN and opts.leading_ten_one
    ):
        rules |= _HEAD_TEN_ONE
    if profile.inner_multiplicand_one is OneBeforeInnerMultiplicand.OMIT:
        rules |= _BARE_SOLE
    return rules


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


# The render plan of each era: (options, the era's profile, their group
# rules, the plan's ceiling, the era), kept for the options object last
# rendered with under that era and read only while render_integer gets that
# same object. Keyed by Era, so it holds at most one plan per era. The
# ceiling bounds the values render_integer reads straight from the group
# memo: those of one or two groups (below 10^8) within the profile's
# ceiling; it is 0 where the options ask for a banned You, so that every
# value still meets its value errors first.
_plans: dict[Era, tuple[RenderOptions, EraProfile, int, int, Era]] = {}


def render_integer(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions = DEFAULT_OPTIONS,
) -> NumeralExpression:
    """Render a non-negative integer under an era profile and options."""
    plan = _plans.get(era) if era.__class__ is Era else None
    if plan is None or plan[0] is not opts:
        profile = era_profile(era)
        if opts.elliptic:
            return render_elliptic(n, profile, opts)
        _check_style(profile, opts, False)
        rules = _rules(profile, opts)
        ceiling = 0 if rules == _YOU_BANNED else min(profile.max_value, 10**8 - 1)
        plan = opts, profile, rules, ceiling, profile.era
        if era.__class__ is Era:
            _plans[era] = plan  # type: ignore[index]
    _, profile, rules, ceiling, era = plan
    # A plain int of one or two groups joins its memoized groups here, by
    # _render_full's keys; anything else, or a group not yet in the memo,
    # takes the full render with its checks in their order.
    if n.__class__ is int and 0 < n <= ceiling:
        if n < 10**4:
            group = _group_memo.get((n << 6 | rules) << 8)
            if group is not None:
                return _expression(group, era, False, profile)
        else:
            high, low = divmod(n, 10**4)
            group = _group_memo.get((high << 6 | rules) << 8 | 64)
            if group is not None:
                if not low:
                    return _expression(group, era, False, profile)
                tail = _group_memo.get((low << 6 | rules) << 8 | 4)
                if tail is not None:
                    return _expression(group + tail, era, False, profile)
    return _render_full(n, profile, rules)


def _render_full(n: int, profile: EraProfile, rules: int) -> NumeralExpression:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueOutOfRange(f"expected a non-negative integer, got {n!r}")
    if n > profile.max_value:
        raise ValueOutOfRange(
            f"{n} exceeds the {profile.era.value} ceiling of {profile.max_value}"
        )
    if n >= 10**12:
        # A custom profile's ceiling may lie past the largest pivot's reach.
        raise ValueOutOfRange(f"{n} needs a rank above 10^8, and none exists")
    if n == 0:
        if not profile.zero_expressible:
            raise ZeroInexpressible(
                f"{profile.era.value} numerals have no standalone zero word"
            )
        return _expression((LING,), profile.era, False, profile)
    if rules == _YOU_BANNED:
        raise StyleNotAllowed(
            f"the conjunction you is not used in {profile.era.value} integer names"
        )

    g8, rem = divmod(n, 10**8)
    g4, g0 = divmod(rem, 10**4)
    tokens: tuple[Morpheme, ...] = ()
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
    return _expression(tokens, profile.era, False, profile)


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
    full = _render_full(n, profile, _rules(profile, opts))
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
    return _expression(t[:-1], profile.era, True, profile)


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
    profile = era_profile(era)
    if profile.era is not Era.CONTEMPORARY:
        raise StyleNotAllowed("classifier quantity phrases are rendered in the contemporary profile only")
    if opts is None:
        opts = DEFAULT_OPTIONS
    if opts.elliptic:
        raise StyleNotAllowed("elliptic numerals cannot be incorporated before a classifier")
    _check_style(profile, opts, False)
    clf = unit_word(classifier)
    render = _render_full if clf.traditional in ("兩", "两") else _counted
    return NumeralPhrase(items=(render(n, profile, _rules(profile, opts)), clf))


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
    num = render_integer(n, profile)  # AlwaysEr in every slot
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
    profile = era_profile(Era.CONTEMPORARY)
    return _counted(n, profile, _rules(profile, DEFAULT_OPTIONS))
