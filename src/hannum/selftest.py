"""Built-in self-test: worked-example table plus a scalable round-trip sweep.

The example table is an independent hand-written copy of the documented
renderings, kept deliberately separate from the test suite's fixtures so
that a corruption in either copy surfaces as a failure, not a silent
agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import Era, RenderOptions, TwoStyle, era_profile, token_notation
from .generate import render_integer
from .parse import NumeralParseError, parse
from .phrase import render_currency, render_duration, render_ordinal, render_quantity

__all__ = ["IntegerFixture", "PhraseFixture", "SelfTestReport", "run_selftest"]


@dataclass(frozen=True, slots=True)
class IntegerFixture:
    """One expected integer rendering under one era and option set."""

    value: int
    era: str
    surface: str
    notation: str
    use_you: bool | None = None
    two_style: str = "er"
    elliptic: bool = False
    leading_ten_one: bool = False


@dataclass(frozen=True, slots=True)
class PhraseFixture:
    """One expected measured-phrase rendering (currency, duration, ...)."""

    kind: str
    args: tuple
    surface: str


INTEGER_FIXTURES: tuple[IntegerFixture, ...] = (
    IntegerFixture(1_305_000_080, "contemporary",
                   "十三億零五百萬零八十",
                   "[10] [3] [10^8] líng [5] [10^2] [10^4] líng [8] [10]"),
    IntegerFixture(210, "suanshushu", "二百一十", "[2] [10^2] [1] [10]"),
    IntegerFixture(2016, "suanshushu", "二千一十六",
                   "[2] [10^3] [1] [10] [6]"),
    IntegerFixture(150, "suanshushu", "百五十", "[10^2] [5] [10]"),
    IntegerFixture(7129, "suanshushu", "七千一百二十九",
                   "[7] [10^3] [1] [10^2] [2] [10] [9]"),
    IntegerFixture(1089, "suanshushu", "千八十九", "[10^3] [8] [10] [9]"),
    IntegerFixture(11520, "suanshushu", "萬一千五百二十",
                   "[10^4] [1] [10^3] [5] [10^2] [2] [10]"),
    IntegerFixture(11100, "suanshushu", "萬一千一百",
                   "[10^4] [1] [10^3] [1] [10^2]"),
    IntegerFixture(100, "dunhuang", "一百", "[1] [10^2]"),
    IntegerFixture(10, "dunhuang", "十", "[10]"),
    IntegerFixture(115000, "dunhuang", "一十一萬五千",
                   "[1] [10] [1] [10^4] [5] [10^3]",
                   leading_ten_one=True),
    IntegerFixture(2222, "contemporary", "二千二百二十二",
                   "[2] [10^3] [2] [10^2] [2] [10] [2]"),
    IntegerFixture(2222, "contemporary", "兩千兩百二十二",
                   "[2v] [10^3] [2v] [10^2] [2] [10] [2]",
                   two_style="liang"),
    IntegerFixture(105, "shang-oracle", "百五", "[10^2] [5]"),
    IntegerFixture(105, "zhou-bronze", "百有五", "[10^2] yòu [5]"),
    IntegerFixture(105, "suanshushu", "百五", "[10^2] [5]"),
    IntegerFixture(105, "dunhuang", "一百五", "[1] [10^2] [5]"),
    IntegerFixture(105, "nine-chapters", "一百五", "[1] [10^2] [5]"),
    IntegerFixture(105, "song-qin", "一百零五", "[1] [10^2] líng [5]"),
    IntegerFixture(105, "contemporary", "一百零五", "[1] [10^2] líng [5]"),
    IntegerFixture(150, "shang-oracle", "百五十", "[10^2] [5] [10]"),
    IntegerFixture(150, "zhou-bronze", "百有五十", "[10^2] yòu [5] [10]"),
    IntegerFixture(150, "dunhuang", "一百五十", "[1] [10^2] [5] [10]"),
    IntegerFixture(150, "nine-chapters", "一百五十", "[1] [10^2] [5] [10]"),
    IntegerFixture(150, "song-qin", "一百五十", "[1] [10^2] [5] [10]"),
    IntegerFixture(150, "contemporary", "一百五十", "[1] [10^2] [5] [10]"),
    IntegerFixture(150, "contemporary", "一百五", "[1] [10^2] [5]",
                   elliptic=True),
    IntegerFixture(15, "zhou-bronze", "十有五", "[10] yòu [5]"),
    IntegerFixture(1001, "contemporary", "一千零一", "[1] [10^3] líng [1]"),
    IntegerFixture(0, "contemporary", "零", "líng"),
)

PHRASE_FIXTURES: tuple[PhraseFixture, ...] = (
    PhraseFixture("currency", (3, 8, 5), "三元八角五分"),
    PhraseFixture("currency", (3, 0, 5), "三元零五分"),
    PhraseFixture("duration", (1, 5), "一年零五個月"),
    PhraseFixture("duration", (1, 11), "一年零十一個月"),
    PhraseFixture("quantity", (2, "個"), "兩個"),
    PhraseFixture("quantity", (2, "層"), "兩層"),
    PhraseFixture("quantity", (2, "兩"), "二兩"),
    PhraseFixture("quantity", (150, "個"), "一百五十個"),
    PhraseFixture("ordinal", (2, True), "第二"),
    PhraseFixture("ordinal", (2, False), "二"),
)


@dataclass(frozen=True, slots=True)
class SelfTestReport:
    passed: bool
    checks_run: int
    failures: tuple[str, ...]
    elapsed_seconds: float

    def as_dict(self) -> dict[str, object]:
        return {
            "passed": self.passed,
            "checks_run": self.checks_run,
            "failures": list(self.failures),
            "elapsed_seconds": self.elapsed_seconds,
        }


def _options_for(fx: IntegerFixture) -> RenderOptions:
    return RenderOptions(
        two_style=TwoStyle(fx.two_style),
        use_you=fx.use_you,
        elliptic=fx.elliptic,
        leading_ten_one=fx.leading_ten_one,
    )


def _check_integer_fixture(fx: IntegerFixture, failures: list[str]) -> int:
    """Check one fixture's render, surface, tokens and parse-back; returns
    the number of checks run: 1 where the render raised, else 4."""
    era = Era.from_string(fx.era)
    try:
        expr = render_integer(fx.value, era, _options_for(fx))
    except Exception as exc:  # noqa: BLE001 - report, never crash the harness
        failures.append(f"render {fx.value} ({fx.era}): raised {exc!r}")
        return 1
    got_surface = expr.text()
    if got_surface != fx.surface:
        failures.append(
            f"render {fx.value} ({fx.era}): surface {got_surface!r} "
            f"!= expected {fx.surface!r}"
        )
    got_notation = " ".join(token_notation(t) for t in expr.tokens)
    if got_notation != fx.notation:
        failures.append(
            f"render {fx.value} ({fx.era}): tokens {got_notation} "
            f"!= expected {fx.notation}"
        )
    try:
        back = parse(expr.tokens, era).value
    except NumeralParseError as exc:
        failures.append(f"parse-back {fx.value} ({fx.era}): rejected: {exc}")
    else:
        if back != fx.value:
            failures.append(f"parse-back {fx.value} ({fx.era}): read {back} instead")
    return 4


def _render_phrase(fx: PhraseFixture) -> str:
    if fx.kind == "currency":
        return render_currency(*fx.args).text()
    if fx.kind == "duration":
        return render_duration(*fx.args).text()
    if fx.kind == "quantity":
        n, clf = fx.args
        return render_quantity(n, clf).text()
    if fx.kind == "ordinal":
        n, prefixed = fx.args
        return render_ordinal(n, with_prefix=prefixed).text()
    raise ValueError(f"unknown phrase fixture kind {fx.kind!r}")


def run_selftest(max_value: int = 1000) -> SelfTestReport:
    """Check the example table, then round-trip every era up to max_value.

    max_value 0 skips the sweep entirely (vacuous pass on the table alone);
    a max_value that is not an int, a bool included, raises TypeError, and
    a negative one ValueError.
    """
    if not isinstance(max_value, int) or isinstance(max_value, bool):
        raise TypeError(f"max_value must be an int, not {type(max_value).__name__}")
    if max_value < 0:
        raise ValueError(f"max_value must be 0 or more, got {max_value}")
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0

    for fx in INTEGER_FIXTURES:
        checks += _check_integer_fixture(fx, failures)

    for pfx in PHRASE_FIXTURES:
        checks += 1
        try:
            got = _render_phrase(pfx)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{pfx.kind}{pfx.args}: raised {exc!r}")
            continue
        if got != pfx.surface:
            failures.append(
                f"{pfx.kind}{pfx.args}: {got!r} != expected {pfx.surface!r}"
            )

    # Every era's values up to max_value, era by era; max_value 0 skips them.
    sweep = (
        (era, n)
        for era in (Era if max_value else ())
        for n in range(
            0 if era_profile(era).zero_expressible else 1,
            min(max_value, era_profile(era).max_value) + 1,
        )
    )
    for era, n in sweep:
        checks += 1
        try:
            back = parse(render_integer(n, era).tokens, era).value
        except Exception as exc:  # noqa: BLE001
            failures.append(f"round-trip {n} ({era.value}): {exc!r}")
        else:
            if back == n:
                continue
            failures.append(f"round-trip {n} ({era.value}): parsed back as {back}")
        if len(failures) > 20:
            break

    elapsed = time.perf_counter() - start
    return SelfTestReport(
        passed=not failures,
        checks_run=checks,
        failures=tuple(failures),
        elapsed_seconds=elapsed,
    )
