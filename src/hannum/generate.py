"""Rendering of integers as Han numeral expressions.

The core operation is render_integer: split the value into myriad groups
(units, x10^4, x10^8), render each group's coefficient with descending
[digit][pivot] compounds, and join groups with their outer pivots. Everything
era-dependent comes from the EraProfile the caller passes (standard or
custom), resolved once per render, together with the options, into a few
group rules by _plan, which also refuses the styles the profile lacks;
each group is rendered, and cached, from those rules alone:

* gap marking: in ling-required eras exactly one Ling precedes an emitted
  digit whose rank is not one below the preceding pivot's rank, no matter how
  many zero digits the gap spans, within a group or across groups; in earlier
  eras gaps are plain juxtaposition;
* [1] before pivots: written before every pivot but the numeral's first;
  before that one, the head, parse's [1] rule (_one_rule) decides for each
  of its head slots (a ten, a higher pivot, either as an outer pivot's sole
  multiplier, an outer pivot alone). [1] is written where the rule rejects
  its omission, or where leading_ten_one asks for it and the rule accepts
  it, so the renderer and the reader read one rule;
* the conjunction You at hundreds-tens and tens-units junctions;
* the liang variant of 2 where the whole multiplier of a pivot >= 10^2 is 2;
* elliptic names: the full form less its final pivot, kept only where the
  profile's reader reads it back as the value.

Every render refuses in one order: an opts that is not a RenderOptions or
None, then the era (TypeError, or ValueError for an unknown name), then an
option field of the wrong type (TypeError), then a style the profile lacks
(StyleNotAllowed: liang, elliptic, You, in that order), all from _plan;
then the value (ValueOutOfRange, ZeroInexpressible, also where the
profile forbids líng, the zero word), then the form (EllipsisUnavailable).
So an option set refused for one value is refused for every value,
whatever its type. The phrase renderers of hannum.phrase
read their era and options through _plan too.

Each group's tokens are memoized in a plain dict keyed by one int packed
from the group rules, the coefficient, the group's scale and the previous
group's. It holds at most _GROUP_MEMO (262,144) groups, about 174 bytes
each, so about 46 MB at its bound; past the bound new groups are rendered
every time and not stored. The eight eras' groups of a sweep of every
value up to 10^6, plus samples up to each ceiling, fit under it.

A render plan is a profile and its group rules. _PLANS holds one
constant plan per era under DEFAULT_OPTIONS, built at import;
render_integer reads it when it gets an Era and DEFAULT_OPTIONS itself.
Any other call, a custom profile, an era name or other options, resolves
its plan through _plan and stores nothing, so no plan depends on which
options came before. A plain int within the profile's ceiling is read
straight from the group memo, its one, two or three groups' tuples
concatenated; every other value, and a group not yet in the memo, goes
through _render_full, which checks the value and concatenates its groups'
tuples the same way. text() reads each token's
written form with one operator.itemgetter over the script's table, in one
frame.

A rendered NumeralExpression keeps the profile that rendered it, so its value
reads the tokens back under that same profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
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
from .parse import (NumeralParseError, _HIGH, _OUTER, _SOLE_HIGH, _SOLE_TEN, _TEN,
                    _one_rule, _one_slot, parse)

__all__ = [
    "AllZeroAmount",
    "EllipsisUnavailable",
    "MonthOutOfRange",
    "NumeralExpression",
    "RenderError",
    "StyleNotAllowed",
    "ValueOutOfRange",
    "ZeroInexpressible",
    "render_elliptic",
    "render_integer",
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
# Expressions
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
        tokens = self.tokens
        if script is _TOKENS:
            # Bracket tokens run together; word tokens get surrounding spaces.
            pieces = [m.notation for m in tokens]
            return " ".join(
                "".join(p if p.startswith("[") else f" {p} " for p in pieces).split()
            )
        try:
            sep, written = _WRITTEN[script]
            # One lookup per token in C; itemgetter of one key gives the
            # value, not a 1-tuple, so a single token is read on its own.
            if len(tokens) > 1:
                return sep.join(_itemgetter(*tokens)(written))
            return written[tokens[0]]
        except (KeyError, TypeError, IndexError):
            pass
        # A parse-only gap word has no written form, and a value that is not
        # a Script, hashable or not, none: surface() raises for either. Only
        # an empty tuple gets past it, and joins to the empty string.
        return "".join([surface(m, script) for m in tokens])

    def __str__(self) -> str:
        return self.text()


# The renders build expressions through this positional constructor:
# (tokens, era, elliptic, profile).
_expression = _builder(NumeralExpression)


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


# ---------------------------------------------------------------------------
# Group rendering
# ---------------------------------------------------------------------------

# The rules a group render reads, resolved once per call from (profile,
# options) into one small int, so the group cache keys on ints only.
_LING_ON = 1  # one Ling per rank gap
_YOU_ON = 2  # You at hundreds-tens, tens-units and hundreds-units junctions
_LIANG_ON = 4  # liang for a 2 that is the whole multiplier of a pivot >= 10^2
# [1] before the numeral's first pivot: one bit per head slot of parse's [1]
# rule, set where the renderer writes it; slot s is bit _SLOT_ONE << s // 2.
_SLOT_ONE = 8
# The head bits of each pairing of the two [1] policies and leading_ten_one:
# [1] is written where the rule rejects its omission, or where
# leading_ten_one asks for it and the rule accepts it.
_HEAD_ONES = {
    (lead, inner, ten_one): sum(
        _SLOT_ONE << slot // 2
        for slot in (_TEN, _HIGH, _SOLE_TEN, _SOLE_HIGH, _OUTER)
        if _one_rule(lead, inner, slot, False)
        or ten_one and not _one_rule(lead, inner, slot, True)
    )
    for lead, inner, ten_one in product(
        LeadingOnePolicy, OneBeforeInnerMultiplicand, (False, True)
    )
}
# The enum members _plan compares against, read once here: on CPython 3.11
# each member read at call time goes through EnumType's attribute hook.
_ALWAYS_ER, _PREFER_LIANG = TwoStyle.ALWAYS_ER, TwoStyle.PREFER_LIANG
_YOU_FORBIDDEN, _YOU_DEFAULT_ON = YouPolicy.FORBIDDEN, YouPolicy.OPTIONAL_DEFAULT_ON
_LING_REQUIRED = LingPolicy.REQUIRED

# The rendered groups, keyed by _render_full's packed (coefficient, rules,
# scale, previous scale); the rules take 8 bits, so keys stay below 2^30.
# Past _GROUP_MEMO entries new groups are rendered every time and not stored.
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
    # Whether the first term here would be its outer pivot's sole multiplier.
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
        # [1] is written before every pivot except the numeral's first, whose
        # head slot's bit decides, the slot named by parse's _one_slot.
        if d == 1 and mult:
            slot = _one_slot(exp, sole)
            if prev_exp is not None or rules & _SLOT_ONE << slot // 2:
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


def _options(opts: object) -> RenderOptions:
    """opts, or DEFAULT_OPTIONS for None; any other type is a TypeError."""
    if opts is None:
        return DEFAULT_OPTIONS
    if not isinstance(opts, RenderOptions):
        raise TypeError(f"opts must be a RenderOptions or None, not {type(opts).__name__}")
    return opts


# ---------------------------------------------------------------------------
# Public renders
# ---------------------------------------------------------------------------


def _plan(era: Era | EraProfile | str, opts: RenderOptions | None,
          elliptic: bool = False) -> tuple[EraProfile, int]:
    """The render plan of era under opts: (profile, group rules).

    A render plan is a profile and its group rules. Every render reads its
    era and options here, in one call, in one order: opts through
    _options, then the era through era_profile, then the option fields. A
    two_style that is not a TwoStyle, a use_you that is not None or a bool,
    and an elliptic or leading_ten_one that is not a bool are TypeErrors,
    in that order. The style checks come next: StyleNotAllowed where the
    options ask for liang, or elliptic is set for an elliptic name, or
    use_you asks for You, and the profile has none, in that order. The
    head's [1] bits are _HEAD_ONES's, read off parse's [1] rule.
    """
    opts = _options(opts)
    profile = era_profile(era)
    two = opts.two_style
    if two.__class__ is not TwoStyle:
        raise TypeError(f"two_style must be a TwoStyle, not {type(two).__name__}")
    you = opts.use_you
    if you is not None and you.__class__ is not bool:
        raise TypeError(f"use_you must be None or a bool, not {type(you).__name__}")
    if opts.elliptic.__class__ is not bool:
        raise TypeError(f"elliptic must be a bool, not {type(opts.elliptic).__name__}")
    ten_one = opts.leading_ten_one
    if ten_one.__class__ is not bool:
        raise TypeError(f"leading_ten_one must be a bool, not {type(ten_one).__name__}")
    if two is not _ALWAYS_ER and not profile.liang_allowed:
        raise StyleNotAllowed(
            f"the liang variant of 2 is not part of {profile.era.value} numerals"
        )
    if elliptic and not profile.elliptic_allowed:
        raise StyleNotAllowed(
            f"elliptic names are not part of {profile.era.value} numerals"
        )
    if you is None:
        you = profile.you_policy is _YOU_DEFAULT_ON
    elif you and profile.you_policy is _YOU_FORBIDDEN:
        raise StyleNotAllowed(
            f"the conjunction you is not used in {profile.era.value} integer names"
        )
    rules = _YOU_ON if you else 0
    if profile.ling_policy is _LING_REQUIRED:
        rules |= _LING_ON
    if two is _PREFER_LIANG:
        rules |= _LIANG_ON
    ones = profile.leading_one_policy, profile.inner_multiplicand_one
    return profile, rules | _HEAD_ONES[(*ones, ten_one)]


# Each era's plan under DEFAULT_OPTIONS, the one render_integer reads when it
# gets an Era and DEFAULT_OPTIONS itself.
_PLANS = {era: _plan(era, DEFAULT_OPTIONS) for era in Era}


def render_integer(
    n: int,
    era: "Era | EraProfile | str" = Era.CONTEMPORARY,
    opts: RenderOptions | None = DEFAULT_OPTIONS,
) -> NumeralExpression:
    """Render a non-negative integer under an era profile and options.

    opts=None reads as DEFAULT_OPTIONS.
    """
    if opts is DEFAULT_OPTIONS and era.__class__ is Era:
        profile, rules = _PLANS[era]  # type: ignore[index]
    elif _options(opts).elliptic is True:
        return render_elliptic(n, era, opts)
    else:
        profile, rules = _plan(era, opts)
        era = profile.era
    # A plain int within the profile's ceiling joins its one, two or three
    # memoized groups here, by _render_full's keys; anything else, or a
    # group not yet in the memo, takes the full render with its checks in
    # their order. A zero group has no entry: () stands in for it, and a
    # value of 10^12 or more finds no top group, every stored coefficient
    # being below 10^4.
    if n.__class__ is int and 0 < n <= profile.max_value:
        if n < 10**4:
            group = _group_memo.get((n << 8 | rules) << 8)
            if group is not None:
                return _expression(group, era, False, profile)
        elif n < 10**8:
            high, low = divmod(n, 10**4)
            group = _group_memo.get((high << 8 | rules) << 8 | 64)
            if group is not None:
                if not low:
                    return _expression(group, era, False, profile)
                tail = _group_memo.get((low << 8 | rules) << 8 | 4)
                if tail is not None:
                    return _expression(group + tail, era, False, profile)
        else:
            top, rem = divmod(n, 10**8)
            mid, low = divmod(rem, 10**4)
            group = _group_memo.get((top << 8 | rules) << 8 | 128)
            middle = _group_memo.get((mid << 8 | rules) << 8 | 72) if mid else ()
            tail = (
                _group_memo.get((low << 8 | rules) << 8 | (4 if mid else 8))
                if low else ()
            )
            if group is not None and middle is not None and tail is not None:
                return _expression(group + middle + tail, era, False, profile)
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
        # The zero word is líng, so a profile that forbids líng cannot read it.
        if not profile.zero_expressible or profile.ling_policy is LingPolicy.FORBIDDEN:
            raise ZeroInexpressible(
                f"{profile.era.value} numerals have no standalone zero word"
            )
        return _expression((LING,), profile.era, False, profile)

    g8, rem = divmod(n, 10**8)
    g4, g0 = divmod(rem, 10**4)
    tokens: tuple[Morpheme, ...] = ()
    prev_scale: int | None = None
    for coeff, scale in ((g8, 8), (g4, 4), (g0, 0)):
        if coeff:
            key = (coeff << 8 | rules) << 8 | scale << 4 | (prev_scale or 0)
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
    opts: RenderOptions | None = DEFAULT_OPTIONS,
) -> NumeralExpression:
    """Render the elliptic name for n: the full form less its final pivot,
    read back as n.

    The profile's own reader decides: where the shortened form does not
    parse to n under the profile, a listener could not recover the dropped
    pivot, and the render raises EllipsisUnavailable.
    """
    profile, rules = _plan(era, opts, True)
    tokens = _render_full(n, profile, rules).tokens
    short = tokens[:-1]
    try:
        kept = tokens[-1].kind is MorphemeKind.PIVOT and parse(short, profile).value == n
    except NumeralParseError:
        kept = False
    if not kept:
        raise EllipsisUnavailable(
            f"{n} has no droppable final pivot: its name does not end with a "
            f"digit one rank below the preceding pivot"
        )
    return _expression(short, profile.era, True, profile)
