#!/usr/bin/env python3
"""Count where the lenient grammar and the era grammars part, by brute force.

Usage:
    python scripts/lenient_audit.py [--length N]

Every sequence of 1..N morphemes (N = 4 by default) is parsed through
hannum's public API alone: once leniently, parse(tokens, None), and once
under each profile of a set. Two sets are audited:

- the 208 era grammars, one profile each (shang-oracle, suanshushu and
  song-qin under every setting of the fields a grammar keeps), each with
  the lenient ceiling, 10^12 - 1; tests/test_parse_fuzz.py reads the same
  208 grammars through grammar_profiles, with ceilings of its own;
- the eight standard eras, each with its own profile.

For each set the script prints, in this order:

- the forms the lenient grammar accepts;
- the forms only the lenient grammar accepts, and how many of them carry
  the lenient diagnostic "líng missing at the rank gap" (the outer-pivot
  líng drop);
- the forms some profile accepts and the lenient grammar rejects;
- the forms the lenient grammar and some profile accept where no accepting
  profile gives the lenient value, split by that diagnostic.

With N = 4 the run makes about 29 million parses and takes some minutes.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections.abc import Iterable, Sequence
from dataclasses import replace
from pathlib import Path

# Appended, not prepended: a PYTHONPATH that names another checkout's src
# comes first.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from hannum import (  # noqa: E402
    CHRONOLOGY,
    MORPHEMES,
    Era,
    EraProfile,
    LeadingOnePolicy,
    LingPolicy,
    NumeralParseError,
    OneBeforeInnerMultiplicand,
    YouPolicy,
    era_profile,
    parse,
)

# The lenient diagnostic of the outer-pivot líng drop.
LING_DROP = "líng missing at the rank gap"
# The counts, in output order.
FIELDS = (
    "accepts",
    "lenient_only",
    "lenient_only_ling_drop",
    "rejected",
    "value_ling_drop",
    "value_other",
)


def grammar_profiles() -> list[EraProfile]:
    """A profile of each of the 208 era grammars, each with ceiling
    10^12 - 1: an early era, a later one and song-qin, under every setting
    of the fields a grammar keeps (shang-oracle reads no [1] rule)."""
    profiles = []
    for era in (Era.SHANG_ORACLE, Era.SUANSHUSHU, Era.SONG_QIN):
        ones = [(LeadingOnePolicy.OMIT_BEFORE_HIGHEST, OneBeforeInnerMultiplicand.OMIT)]
        if era is not Era.SHANG_ORACLE:
            ones = list(itertools.product(LeadingOnePolicy, OneBeforeInnerMultiplicand))
        for you, ling, liang, zero, (lead, inner) in itertools.product(
            (YouPolicy.FORBIDDEN, YouPolicy.OPTIONAL_DEFAULT_OFF),
            LingPolicy, (False, True), (False, True), ones,
        ):
            profiles.append(replace(
                era_profile(era), you_policy=you, ling_policy=ling,
                liang_allowed=liang, zero_expressible=zero,
                leading_one_policy=lead, inner_multiplicand_one=inner,
                max_value=10**12 - 1,
            ))
    return profiles


def sequences(length: int) -> Iterable[tuple]:
    """Every sequence of 1..length morphemes, shortest first."""
    for k in range(1, length + 1):
        yield from itertools.product(MORPHEMES, repeat=k)


def _value(tokens: tuple, grammar: object) -> int | None:
    try:
        return parse(tokens, grammar).value
    except NumeralParseError:
        return None


def audit(seqs: Iterable[tuple], grammars: Sequence[object]) -> dict[str, int]:
    """The counts of FIELDS over seqs, each read leniently and under every
    grammar of grammars (an Era or an EraProfile)."""
    counts = dict.fromkeys(FIELDS, 0)
    for tokens in seqs:
        try:
            lenient = parse(tokens, None)
        except NumeralParseError:
            if any(_value(tokens, g) is not None for g in grammars):
                counts["rejected"] += 1
            continue
        counts["accepts"] += 1
        values = {_value(tokens, g) for g in grammars}
        values.discard(None)
        if values and lenient.value in values:
            continue
        drop = any(LING_DROP in text for text in lenient.diagnostics)
        if not values:
            counts["lenient_only"] += 1
            counts["lenient_only_ling_drop"] += drop
        else:
            counts["value_ling_drop" if drop else "value_other"] += 1
    return counts


def report(name: str, counts: dict[str, int]) -> list[str]:
    """The printed lines of one audit."""
    mismatches = counts["value_ling_drop"] + counts["value_other"]
    return [
        f"{name}:",
        f"  lenient accepts: {counts['accepts']:,}",
        f"  lenient-only forms: {counts['lenient_only']:,} "
        f"({counts['lenient_only_ling_drop']:,} with the líng-drop diagnostic)",
        f"  accepted by some grammar, rejected leniently: {counts['rejected']:,}",
        f"  lenient values no accepting grammar gives: {mismatches:,} "
        f"({counts['value_ling_drop']:,} with the líng-drop diagnostic, "
        f"{counts['value_other']:,} without)",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--length", type=int, default=4,
                        help="the longest sequence, in morphemes (default 4)")
    args = parser.parse_args(argv)
    if args.length < 1:
        parser.error("--length must be at least 1")
    sets = [
        ("208 era grammars, ceiling 10^12 - 1", grammar_profiles()),
        ("eight standard eras", list(CHRONOLOGY)),
    ]
    print(f"sequences of 1..{args.length} morphemes")
    for name, grammars in sets:
        counts = audit(sequences(args.length), grammars)
        print("\n".join(report(name, counts)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
