"""A custom EraProfile is honoured whole: every group renders under it, and
both parse(tokens, profile) and the expression's own value read it back."""

import copy
import dataclasses
import importlib
import pickle
import random

import pytest

from hannum import (
    CHRONOLOGY,
    Era,
    NumeralExpression,
    NumeralParseError,
    ParseErrorKind,
    RenderOptions,
    parse,
    parse_text,
    render_elliptic,
    render_integer,
)
from hannum.core import (
    EraProfile,
    LeadingOnePolicy,
    LingPolicy,
    OneBeforeInnerMultiplicand,
    era_profile,
)
from hannum.generate import RenderError, ZeroInexpressible


def _custom(era: Era, **changes):
    return dataclasses.replace(era_profile(era), **changes)


PROFILES = {
    # Without líng the zero word líng is gone too.
    "contemporary-no-ling": _custom(
        Era.CONTEMPORARY, ling_policy=LingPolicy.FORBIDDEN, zero_expressible=False
    ),
    "contemporary-omit-leading-one": _custom(
        Era.CONTEMPORARY, leading_one_policy=LeadingOnePolicy.OMIT_BEFORE_HIGHEST
    ),
    "suanshushu-ling": _custom(Era.SUANSHUSHU, ling_policy=LingPolicy.REQUIRED),
    "nine-chapters-bare-sole": _custom(
        Era.NINE_CHAPTERS, inner_multiplicand_one=OneBeforeInnerMultiplicand.OMIT
    ),
    "dunhuang-one-everywhere": _custom(
        Era.DUNHUANG, leading_one_policy=LeadingOnePolicy.REQUIRED_ALL
    ),
    # A bare sole inner multiplier in a group past the first.
    "suanshushu-to-trillion": _custom(Era.SUANSHUSHU, max_value=10**12 - 1),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_custom_profile_round_trips(name):
    profile = PROFILES[name]
    rng = random.Random(name)
    values = [*range(5001), *(rng.randint(0, profile.max_value) for _ in range(2000))]
    rendered = 0
    for n in values:
        try:
            expr = render_integer(n, profile)
        except RenderError:
            continue
        rendered += 1
        assert parse(expr.tokens, profile).value == n, (n, expr.text())
        assert expr.value == n, (n, expr.text())
        # An elliptic name, where the profile gives one, reads back too.
        try:
            short = render_elliptic(n, profile)
        except RenderError:
            continue
        assert parse(short.tokens, profile).value == n, (n, short.text())
        assert short.value == n, (n, short.text())
    assert rendered >= 7000


@pytest.mark.parametrize(
    "name, n, text",
    [
        ("contemporary-omit-leading-one", 100, "百"),
        ("suanshushu-ling", 101, "百零一"),
        ("contemporary-no-ling", 100_005, "十萬五"),
        ("contemporary-no-ling", 100_105, "十萬一百五"),
        ("suanshushu-to-trillion", 100_100_000, "億一十萬"),
    ],
)
def test_custom_profile_examples(name, n, text):
    expr = render_integer(n, PROFILES[name])
    assert (expr.text(), expr.value) == (text, n)


def test_a_zero_word_without_ling_is_refused():
    # The zero word is líng: a profile that keeps zero_expressible but
    # forbids líng would render a 零 its own reader rejects, so 0 is
    # refused, by render_elliptic as well.
    profile = _custom(Era.CONTEMPORARY, ling_policy=LingPolicy.FORBIDDEN)
    assert profile.zero_expressible
    for render in (render_integer, render_elliptic):
        with pytest.raises(ZeroInexpressible, match="have no standalone zero word"):
            render(0, profile)
    with pytest.raises(NumeralParseError) as info:
        parse_text("零", profile)
    assert info.value.kind is ParseErrorKind.OUT_OF_ERA_MORPHEME

# Values whose later group's whole coefficient is 10, 100 or 1000, among
# others: under an inner-multiplicand-OMIT profile only the numeral's first
# group may write that multiplier bare. Their first terms fill every head
# slot of the [1] rule: a ten (10), a higher pivot (100), the sole ten or
# higher pivot of an outer pivot (10 x 10^4, 100 x 10^4) and an outer pivot
# alone (10^4, 10^8).
SOLE_VALUES = sorted({
    a * 10**8 + b * 10**4 + c
    for a in (0, 1, 10, 100, 1000, 2001)
    for b in (0, 1, 10, 100, 1000, 1010, 9999)
    for c in (0, 1, 10, 100, 1000, 105)
})


@pytest.mark.parametrize("era", CHRONOLOGY)
@pytest.mark.parametrize("lead", LeadingOnePolicy)
@pytest.mark.parametrize("inner", OneBeforeInnerMultiplicand)
@pytest.mark.parametrize("leading_ten_one", [False, True])
def test_every_one_policy_round_trips_later_groups(era, lead, inner, leading_ten_one):
    profile = _custom(
        era,
        leading_one_policy=lead,
        inner_multiplicand_one=inner,
        max_value=10**12 - 1,
    )
    opts = RenderOptions(leading_ten_one=leading_ten_one)
    for n in SOLE_VALUES:
        try:
            expr = render_integer(n, profile, opts)
        except RenderError:
            continue
        assert parse(expr.tokens, profile).value == n, (n, expr.text())
        assert expr.value == n, (n, expr.text())


def _twins(obj):
    return [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(obj), copy.deepcopy(obj)]


@pytest.mark.parametrize("era", CHRONOLOGY)
@pytest.mark.parametrize("n", [1, 105, 150, 20_000, 12_345_678])
def test_rendered_expression_is_its_positional_twin(era, n):
    expr = render_integer(n, era)
    built = NumeralExpression(expr.tokens, expr.era)
    assert expr == built
    assert hash(expr) == hash(built)
    assert repr(expr) == repr(built)
    assert expr.value == built.value == n
    for twin in _twins(expr):
        assert twin == built
        assert hash(twin) == hash(built)
        assert repr(twin) == repr(built)
        assert twin.value == n


def test_custom_profile_lane_table_is_built_once(monkeypatch):
    # Lane tables are keyed by grammar: a profile that changes only the
    # ceiling reads through its era's table and applies its own ceiling.
    # The package exports the function parse under the submodule's name.
    parse_module = importlib.import_module("hannum.parse")
    builds = []
    real = parse_module._Lanes

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(parse_module, "_Lanes", counting)
    profile = _custom(Era.CONTEMPORARY, max_value=10**9 + 7)
    tokens = render_integer(12_345, profile).tokens
    for _ in range(5):
        assert parse(tokens, profile).value == 12_345
        assert parse(tokens, dataclasses.replace(profile)).value == 12_345
    table = parse_module._reader(profile)[0]
    assert table is parse_module._reader(era_profile(Era.CONTEMPORARY))[0]
    over = render_integer(10**9 + 8, Era.CONTEMPORARY).tokens
    with pytest.raises(NumeralParseError) as info:
        parse(over, profile)
    assert info.value.kind is ParseErrorKind.OVERFLOW
    assert info.value.message == "value exceeds the contemporary ceiling of 1000000007"
    assert builds == []


# One wrong-typed value per field. Unchecked, each would select another
# grammar or fail far from its cause: a str policy is no member, so
# "forbidden" let 十有五 read as 15 and "optional-default-on" rendered 十五
# under zhou-bronze; "no" read as true, so 兩千兩百二十二, 零 and 一百五 were
# rendered; a str leading_one_policy was a bare KeyError, a str era an
# AttributeError in parse_text, and max_value=True a ceiling of 1.
WRONG_FIELDS = [
    ("era", "contemporary", "an Era", "str"),
    ("you_policy", "forbidden", "a YouPolicy", "str"),
    ("you_policy", "optional-default-on", "a YouPolicy", "str"),
    ("ling_policy", "required", "a LingPolicy", "str"),
    ("leading_one_policy", "required-all", "a LeadingOnePolicy", "str"),
    ("inner_multiplicand_one", LeadingOnePolicy.REQUIRED_ALL,
     "a OneBeforeInnerMultiplicand", "LeadingOnePolicy"),
    ("liang_allowed", "no", "a bool", "str"),
    ("elliptic_allowed", "no", "a bool", "str"),
    ("zero_expressible", 0, "a bool", "int"),
    ("max_value", "x", "an int", "str"),
    ("max_value", True, "an int", "bool"),
    ("max_value", 10.0**8, "an int", "float"),
]


@pytest.mark.parametrize(
    "field, bad, kind, got", WRONG_FIELDS, ids=[f"{f}={b!r}" for f, b, *_ in WRONG_FIELDS]
)
@pytest.mark.parametrize("era", [Era.CONTEMPORARY, Era.ZHOU_BRONZE])
def test_a_wrong_typed_field_is_refused_where_the_profile_is_built(era, field, bad, kind, got):
    profile = era_profile(era)
    message = f"^{field} must be {kind}, not {got}$"
    with pytest.raises(TypeError, match=message):
        dataclasses.replace(profile, **{field: bad})
    values = {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}
    with pytest.raises(TypeError, match=message):
        EraProfile(**{**values, field: bad})


@pytest.mark.parametrize("era", CHRONOLOGY, ids=lambda e: e.value)
def test_a_negative_ceiling_is_refused_where_the_profile_is_built(era):
    # Unchecked, such a profile refused every value, 0 and 零 included.
    profile = era_profile(era)
    values = {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}
    for bad in (-1, -(10**12)):
        message = f"^max_value must be 0 or more, got {bad}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(profile, max_value=bad)
        with pytest.raises(ValueError, match=message):
            EraProfile(**{**values, "max_value": bad})
    assert _custom(era, max_value=0).max_value == 0


def test_a_profile_of_the_right_types_builds_and_pickles():
    # An int subclass is a ceiling as an int is; copies and unpickled
    # profiles are the profile.
    class Ceiling(int):
        pass

    for era in CHRONOLOGY:
        assert _custom(era, max_value=Ceiling(10**6)).max_value == 10**6
        profile = _custom(era, max_value=10**6, liang_allowed=True)
        assert _twins(profile) == [profile] * len(_twins(profile))
    for profile in PROFILES.values():
        assert _twins(profile) == [profile] * len(_twins(profile))
