"""A custom EraProfile is honoured whole: every group renders under it, and
both parse(tokens, profile) and the expression's own value read it back."""

import copy
import dataclasses
import importlib
import pickle
import random

import pytest

from hannum import CHRONOLOGY, Era, NumeralExpression, parse, render_integer
from hannum.core import (
    LeadingOnePolicy,
    LingPolicy,
    OneBeforeInnerMultiplicand,
    era_profile,
)
from hannum.generate import RenderError


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
    assert rendered >= 7000


@pytest.mark.parametrize(
    "name, n, text",
    [
        ("contemporary-omit-leading-one", 100, "百"),
        ("suanshushu-ling", 101, "百零一"),
        ("contemporary-no-ling", 100_005, "十萬五"),
        ("contemporary-no-ling", 100_105, "十萬一百五"),
    ],
)
def test_custom_profile_examples(name, n, text):
    expr = render_integer(n, PROFILES[name])
    assert (expr.text(), expr.value) == (text, n)


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
    # The package exports the function parse under the submodule's name.
    parse_module = importlib.import_module("hannum.parse")
    builds = []
    real = parse_module._Lanes

    def counting(profiles):
        builds.append(profiles)
        return real(profiles)

    monkeypatch.setattr(parse_module, "_Lanes", counting)
    profile = _custom(Era.CONTEMPORARY, max_value=10**9 + 7)
    tokens = render_integer(12_345, profile).tokens
    for _ in range(5):
        assert parse(tokens, profile).value == 12_345
        assert parse(tokens, dataclasses.replace(profile)).value == 12_345
    assert len(builds) <= 1
