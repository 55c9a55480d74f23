"""Acceptance gate: one test per numbered criterion.

Run with -v for one pass/fail line per criterion. The fixture tables below
are an independent frozen copy of the documented reference readings; they
are deliberately not imported from the package.
"""

import random
import sys
import time
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_renderer import reference_tokens  # noqa: E402

from hannum import (
    EllipsisUnavailable,
    Era,
    MorphemeKind,
    NumeralParseError,
    RenderOptions,
    Script,
    TwoStyle,
    classify,
    era_profile,
    parse,
    parse_text,
    render_currency,
    render_duration,
    render_elliptic,
    render_integer,
    render_quantity,
    scan_text,
    token_notation,
    tokenize,
)

# The whole gate is deselected by the fast suite: pytest -m "not gate".
pytestmark = pytest.mark.gate

SEED = 20260818


def notation(tokens) -> str:
    return " ".join(token_notation(t) for t in tokens)


# --------------------------------------------------------------------------
# Criterion 1: documented example table, exact reproduction
# --------------------------------------------------------------------------

# (value, era, options, expected Han, expected notation, expected pinyin)
INTEGER_TABLE = [
    # 1,305,000,080 with a líng after each outer pivot that opens a gap
    (1_305_000_080, "contemporary", {},
     "十三億零五百萬零八十",
     "[10] [3] [10^8] líng [5] [10^2] [10^4] líng [8] [10]",
     "shí sān yì líng wǔ bǎi wàn líng bā shí"),
    # bamboo-strip readings: [1] before every pivot except the highest
    (210, "suanshushu", {}, "二百一十", "[2] [10^2] [1] [10]",
     "èr bǎi yī shí"),
    (2016, "suanshushu", {}, "二千一十六", "[2] [10^3] [1] [10] [6]",
     "èr qiān yī shí liù"),
    (150, "suanshushu", {}, "百五十", "[10^2] [5] [10]", "bǎi wǔ shí"),
    (7129, "suanshushu", {}, "七千一百二十九",
     "[7] [10^3] [1] [10^2] [2] [10] [9]", "qī qiān yī bǎi èr shí jiǔ"),
    (1089, "suanshushu", {}, "千八十九", "[10^3] [8] [10] [9]",
     "qiān bā shí jiǔ"),
    (11520, "suanshushu", {}, "萬一千五百二十",
     "[10^4] [1] [10^3] [5] [10^2] [2] [10]",
     "wàn yī qiān wǔ bǎi èr shí"),
    (11100, "suanshushu", {}, "萬一千一百",
     "[10^4] [1] [10^3] [1] [10^2]", "wàn yī qiān yī bǎi"),
    # the Dunhuang-era regime: [1] before the highest pivot too, except a
    # leading ten, where it stays optional
    (100, "dunhuang", {}, "一百", "[1] [10^2]", "yī bǎi"),
    (10, "dunhuang", {}, "十", "[10]", "shí"),
    (115000, "dunhuang", {"leading_ten_one": True}, "一十一萬五千",
     "[1] [10] [1] [10^4] [5] [10^3]", "yī shí yī wàn wǔ qiān"),
    # free choice of the 2 morpheme before pivots above ten
    (2222, "contemporary", {}, "二千二百二十二",
     "[2] [10^3] [2] [10^2] [2] [10] [2]",
     "èr qiān èr bǎi èr shí èr"),
    (2222, "contemporary", {"two_style": TwoStyle.PREFER_LIANG},
     "兩千兩百二十二", "[2v] [10^3] [2v] [10^2] [2] [10] [2]",
     "liǎng qiān liǎng bǎi èr shí èr"),
]

# The four-stage evolution of 105 and 150.
EVOLUTION_TABLE = [
    (105, "shang-oracle", {}, "百五", "[10^2] [5]"),
    (105, "shang-oracle", {"use_you": True}, "百有五", "[10^2] yòu [5]"),
    (105, "zhou-bronze", {}, "百有五", "[10^2] yòu [5]"),
    (105, "warring-states", {}, "百五", "[10^2] [5]"),
    (105, "suanshushu", {}, "百五", "[10^2] [5]"),
    (105, "dunhuang", {}, "一百五", "[1] [10^2] [5]"),
    (105, "nine-chapters", {}, "一百五", "[1] [10^2] [5]"),
    (105, "song-qin", {}, "一百零五", "[1] [10^2] líng [5]"),
    (105, "contemporary", {}, "一百零五", "[1] [10^2] líng [5]"),
    (150, "shang-oracle", {}, "百五十", "[10^2] [5] [10]"),
    (150, "shang-oracle", {"use_you": True}, "百有五十", "[10^2] yòu [5] [10]"),
    (150, "zhou-bronze", {}, "百有五十", "[10^2] yòu [5] [10]"),
    (150, "warring-states", {}, "百五十", "[10^2] [5] [10]"),
    (150, "suanshushu", {}, "百五十", "[10^2] [5] [10]"),
    (150, "dunhuang", {}, "一百五十", "[1] [10^2] [5] [10]"),
    (150, "nine-chapters", {}, "一百五十", "[1] [10^2] [5] [10]"),
    (150, "song-qin", {}, "一百五十", "[1] [10^2] [5] [10]"),
    (150, "contemporary", {}, "一百五十", "[1] [10^2] [5] [10]"),
    (150, "contemporary", {"elliptic": True}, "一百五", "[1] [10^2] [5]"),
]

# (phrase builder args, expected Han, expected pinyin)
PHRASE_TABLE = [
    (lambda: render_currency(3, 8, 5), "三元八角五分",
     "sān yuán bā jiǎo wǔ fēn"),
    (lambda: render_currency(3, 0, 5), "三元零五分", "sān yuán líng wǔ fēn"),
    (lambda: render_duration(1, 5), "一年零五個月", "yī nián líng wǔ ge yuè"),
    (lambda: render_duration(1, 11), "一年零十一個月",
     "yī nián líng shí yī ge yuè"),
]


def test_criterion_1_documented_example_table():
    started = time.perf_counter()
    for value, era, kwargs, han, noted, pinyin in INTEGER_TABLE:
        out = render_integer(value, era, RenderOptions(**kwargs))
        assert out.text() == han, (value, era, out.text())
        assert notation(out.tokens) == noted, (value, era)
        assert out.text(Script.PINYIN) == pinyin, (value, era)
    for value, era, kwargs, han, noted in EVOLUTION_TABLE:
        out = render_integer(value, era, RenderOptions(**kwargs))
        assert out.text() == han, (value, era, kwargs, out.text())
        assert notation(out.tokens) == noted, (value, era, kwargs)
    for build, han, pinyin in PHRASE_TABLE:
        phrase = build()
        assert phrase.text() == han
        assert phrase.text(Script.PINYIN) == pinyin
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"example table took {elapsed:.2f}s"
    print(f"criterion 1: PASS ({elapsed * 1000:.0f} ms)")


# --------------------------------------------------------------------------
# Criterion 2: exhaustive and sampled round-trips per era
# --------------------------------------------------------------------------

def test_criterion_2_round_trip_every_era():
    started = time.perf_counter()
    rng = random.Random(SEED)
    failures = 0
    for era in Era:
        profile = era_profile(era)
        low = 0 if profile.zero_expressible else 1
        for n in range(low, 10**6 + 1):
            if parse(render_integer(n, era).tokens, era).value != n:
                failures += 1
                if failures > 5:
                    break
        for _ in range(10**5):
            n = rng.randint(low, profile.max_value)
            if parse(render_integer(n, era).tokens, era).value != n:
                failures += 1
                if failures > 5:
                    break
    elapsed = time.perf_counter() - started
    assert failures == 0
    if elapsed >= 60.0:
        warnings.warn(
            f"round-trip sweep took {elapsed:.1f}s (target < 60s on a desktop)"
        )
    print(f"criterion 2: PASS ({elapsed:.1f} s for 8.8M pairs)")


# --------------------------------------------------------------------------
# Criterion 3: equivalence with the independent table-driven renderer
# --------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for n in range(0, 10**6 + 1):
        ours = render_integer(n).text(Script.PINYIN).split(" ")
        if ours != reference_tokens(n):
            mismatches += 1
            if mismatches > 5:
                break
    assert mismatches == 0
    print(f"criterion 3: PASS ({time.perf_counter() - started:.1f} s)")


# --------------------------------------------------------------------------
# Criterion 4: líng count equals the decimal-string rank-gap count
# --------------------------------------------------------------------------

def myriad_gap_count(n: int) -> int:
    """Rank gaps read off the decimal string, grouped by fours.

    Within a group, consecutive nonzero digits at non-adjacent ranks open a
    gap; across groups, the outer rank word fills its own slot, so a gap
    opens only when the next non-empty group's thousands digit is zero or a
    whole group was skipped. One gap, one líng, however many zeros it spans.
    """
    s = str(n)
    s = "0" * ((-len(s)) % 4) + s
    count = 0
    seen_nonempty = False
    skipped_empty = False
    for i in range(0, len(s), 4):
        ranks = [3 - j for j, ch in enumerate(s[i:i + 4]) if ch != "0"]
        if not ranks:
            skipped_empty = skipped_empty or seen_nonempty
            continue
        if seen_nonempty and (skipped_empty or ranks[0] < 3):
            count += 1
        skipped_empty = False
        count += sum(1 for a, b in zip(ranks, ranks[1:]) if a - b > 1)
        seen_nonempty = True
    return count


def ling_count(n: int) -> int:
    return sum(
        1 for t in render_integer(n).tokens if t.kind is MorphemeKind.LING
    )


def test_criterion_4_ling_count_property():
    rng = random.Random(SEED + 4)
    for _ in range(10**5):
        n = rng.randint(1, 10**12 - 1)
        assert ling_count(n) == myriad_gap_count(n), n
    assert ling_count(1001) == 1
    assert ling_count(1_305_000_080) == 2
    print("criterion 4: PASS")


# --------------------------------------------------------------------------
# Criterion 5: elliptic discipline
# --------------------------------------------------------------------------

def test_criterion_5_elliptic_discipline():
    started = time.perf_counter()
    defined = 0
    undefined_gap_types = 0
    for n in range(1, 10**6 + 1):
        full = render_integer(n)
        try:
            short = render_elliptic(n)
        except EllipsisUnavailable:
            tails = full.tokens[-2:]
            if (
                len(tails) == 2
                and tails[0].kind is MorphemeKind.LING
                and tails[1].kind is MorphemeKind.DIGIT
            ):
                undefined_gap_types += 1
            continue
        defined += 1
        assert short.tokens == full.tokens[:-1], n
        assert parse(short.tokens, Era.CONTEMPORARY).value == n
        assert not short.incorporable
        phrase = render_quantity(n, "個")
        numeral = phrase.items[0]
        assert numeral.elliptic is False
        assert numeral.tokens == full.tokens, n
    assert defined > 0
    assert undefined_gap_types > 0  # the 105-type family did raise
    with pytest.raises(EllipsisUnavailable):
        render_elliptic(105)
    print(
        f"criterion 5: PASS ({defined} defined, "
        f"{undefined_gap_types} gap-type raises, "
        f"{time.perf_counter() - started:.1f} s)"
    )


# --------------------------------------------------------------------------
# Criterion 6: the two-morpheme constraints for 2
# --------------------------------------------------------------------------

def test_criterion_6_er_liang_constraints():
    started = time.perf_counter()
    liang_opts = RenderOptions(two_style=TwoStyle.PREFER_LIANG)
    for n in range(0, 10**6 + 1):
        plain = render_integer(n)
        styled = render_integer(n, Era.CONTEMPORARY, liang_opts)
        toks = styled.tokens
        for i, t in enumerate(toks):
            if t.kind is not MorphemeKind.LIANG:
                continue
            assert i + 1 < len(toks), (n, "liang in a unit slot")
            nxt = toks[i + 1]
            assert nxt.kind is MorphemeKind.PIVOT and nxt.exponent >= 2, n
        if plain.tokens != styled.tokens:
            assert parse(styled.tokens, Era.CONTEMPORARY).value == n
        assert parse(plain.tokens, Era.CONTEMPORARY).value == n
    print(f"criterion 6: PASS ({time.perf_counter() - started:.1f} s)")


# --------------------------------------------------------------------------
# Criterion 7: chronolect coherence and signature rows
# --------------------------------------------------------------------------

EARLY_TRIO = ["shang-oracle", "zhou-bronze", "warring-states"]
SIGNATURE_ROWS = [
    ("十有五", EARLY_TRIO),
    ("百有五", EARLY_TRIO),
    ("百有五十", EARLY_TRIO),
    ("百五", EARLY_TRIO + ["suanshushu"]),
    ("百五十", EARLY_TRIO + ["suanshushu"]),
    ("一百五", EARLY_TRIO + ["dunhuang", "nine-chapters", "song-qin",
                          "contemporary"]),
    ("一百五十", EARLY_TRIO + ["dunhuang", "nine-chapters", "song-qin",
                           "contemporary"]),
    ("一百零五", ["song-qin", "contemporary"]),
    ("兩千五百", ["contemporary"]),
]


def test_criterion_7_chronolect_coherence():
    rng = random.Random(SEED + 7)
    for _ in range(10**4):
        era = rng.choice(list(Era))
        profile = era_profile(era)
        low = 0 if profile.zero_expressible else 1
        n = rng.randint(low, profile.max_value)
        rendered = render_integer(n, era)
        report = classify(rendered.tokens)
        assert era in report.consistent, (n, era)
    for surface_text, expected in SIGNATURE_ROWS:
        report = classify(surface_text)
        assert [e.value for e in report.consistent] == expected, surface_text
    print("criterion 7: PASS")


# --------------------------------------------------------------------------
# Criterion 8: the regional outer-pivot líng drop
# --------------------------------------------------------------------------

def outer_ling_positions(tokens) -> list[int]:
    spots = []
    for i in range(1, len(tokens)):
        t, prev = tokens[i], tokens[i - 1]
        if (
            t.kind is MorphemeKind.LING
            and prev.kind is MorphemeKind.PIVOT
            and prev.exponent >= 4
        ):
            spots.append(i)
    return spots


def test_criterion_8_outer_pivot_ling_leniency():
    rng = random.Random(SEED + 8)
    checked = 0
    attempts = 0
    while checked < 10**3:
        attempts += 1
        assert attempts < 10**5, "sampler starved"
        n = rng.randint(10**4, 10**12 - 1)
        rendered = render_integer(n)
        spots = outer_ling_positions(rendered.tokens)
        if not spots:
            continue
        cut = rng.choice(spots)
        mutated = rendered.tokens[:cut] + rendered.tokens[cut + 1:]
        try:
            parse(mutated, Era.CONTEMPORARY)
        except NumeralParseError:
            pass
        else:
            # Deleting the líng before a lone trailing digit leaves a valid
            # elliptic name; such shapes are outside this property.
            continue
        outcome = parse(mutated, None)
        assert outcome.value == n, n
        assert any("líng" in d for d in outcome.diagnostics), n
        checked += 1
    print(f"criterion 8: PASS ({checked} deletions over {attempts} draws)")


# --------------------------------------------------------------------------
# Criterion 9: scanner tallies on a planted corpus
# --------------------------------------------------------------------------

def test_criterion_9_scan_tally_on_planted_corpus():
    filler = "山水風雲花鳥草木"
    planted_you = ["十有五", "六百有五十有九", "百有五", "十有二", "百有五十"]
    planted_ling = ["一百零五", "一千零一", "三萬零七十", "九十萬零九",
                    "一千零五十"]
    planted_liang = ["兩千", "兩萬五千", "兩百五十", "兩億", "兩千兩百二十二"]
    planted_elliptic = ["一百五", "一千五", "一萬五", "三千四", "五萬六"]
    planted_plain = ["七", "六十四", "九百九十九", "十二萬三千四百五十六",
                     "八萬六千四百"]
    groups = [planted_you, planted_ling, planted_liang, planted_elliptic,
              planted_plain]
    pieces = []
    for group in groups:
        for item in group:
            pieces.append(filler)
            pieces.append(item)
    pieces.append(filler)
    text = "。".join(pieces)

    records, summary = scan_text(text)
    total = sum(len(g) for g in groups)
    assert summary.expressions == total
    assert summary.parsed == total
    assert summary.errors == 0
    assert summary.with_you == len(planted_you)
    assert summary.without_you == total - len(planted_you)
    assert summary.with_ling == len(planted_ling)
    assert summary.with_liang == len(planted_liang)
    assert summary.elliptic == len(planted_elliptic)
    assert all(r.ok for r in records)
    early_key = "shang-oracle+zhou-bronze+warring-states"
    assert summary.era_sets.get(early_key, 0) == len(planted_you)
    assert summary.era_sets.get("contemporary", 0) >= len(planted_liang)
    print("criterion 9: PASS")
