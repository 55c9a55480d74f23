#!/usr/bin/env python3
"""Size a change in one process: a base checkout's hannum against this one's.

Usage:
    python scripts/inprocess_ab.py BASE_SRC [--workload W] [--rounds N] [--cold]

BASE_SRC is the src directory of another checkout, say one exported with
`git archive`. Its hannum is imported under the package name hannum_base,
beside this checkout's hannum; that works because hannum imports its own
modules relatively. Each workload (all five unless --workload names one)
builds its pool once per side: roundtrip, classify and scan with the
unchanged bench/workloads.py, at seed 1, and pair and render here. pair is
the acceptance sweep's pair (criterion 2),
parse(render_integer(n, era).tokens, era).value == n, over a thousandth
of that sweep in its proportions: for each era, 1,000 values up to 10^6
in ascending order, then 100 up to the era's ceiling, from a fixed seed.
render times render_integer(n, era) alone over the same pool, and checks
that the expression's value is n; with no parse in the timed pass, a change
on the generate side is sized with less noise.
An untimed pass on each side runs every item through the workload's
known-answer check; a failed check, or pools whose inputs differ, exits
1. Then N rounds (default 20) each time one full pass of the pool per
side, alternating which side goes first. For each workload it
prints the median µs/op of each side and the median over rounds of the
per-round ratio of base time to change time, so a ratio above 1 means the
change is faster, then that ratio's quartiles over the rounds (exclusive
method, as scripts/bench_pairs.py takes them), so a sizing shows its own
noise.

--cold empties both sides' process memos before each timed pass: scan's
readings, cli's record tails, the group memo of every parse lane table
with its count, and generate's group memo. Each pass then reads every
span, group and render it meets for the first time in the process, the
all-miss path that a warm pass never runs.

Adjacent passes in one process share the host's speed of the moment, so
the ratio sizes a change quickly. It is for sizing only: a claim comes
from scripts/bench_pairs.py, which runs the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import hannum  # noqa: E402
import hannum.cli  # noqa: E402
import workloads  # noqa: E402
from spans import plain_calls  # noqa: E402


def load_base(src: Path) -> Any:
    """src/hannum imported as the package hannum_base, with its cli."""
    init = src / "hannum" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no hannum sources under {src}")
    spec = importlib.util.spec_from_file_location(
        "hannum_base", init, submodule_search_locations=[str(init.parent)]
    )
    assert spec is not None and spec.loader is not None
    base = importlib.util.module_from_spec(spec)
    sys.modules["hannum_base"] = base
    spec.loader.exec_module(base)
    importlib.import_module("hannum_base.cli")
    return base


# The pair pool: per era, values up to 10^6 and up to the era's ceiling,
# 10 to 1 as the acceptance sweep draws them.
PAIR_DENSE, PAIR_SAMPLED = 1_000, 100
NAMES = (*workloads.NAMES, "pair", "render")


def pair_inputs() -> list[tuple[str, int]]:
    """(era id, n) for the pair workload, era by era as the sweep runs."""
    rng = random.Random("pair:1")
    items: list[tuple[str, int]] = []
    for era, top, low in workloads.ERAS:
        dense = sorted(rng.sample(range(low, 10**6 + 1), PAIR_DENSE))
        items += [(era, n) for n in dense]
        items += [(era, rng.randint(low, top)) for _ in range(PAIR_SAMPLED)]
    return items


def run_pair(f: Any, item: tuple[Any, int]) -> bool:
    era, n = item
    return f.parse(f.render_integer(n, era).tokens, era).value == n


def run_render(f: Any, item: tuple[Any, int]) -> Any:
    era, n = item
    return f.render_integer(n, era)


def build(name: str, package: Any, docs_dir: Path) -> tuple[workloads.Workload, Any]:
    """Workload name on package's side, with the calls its ops make."""
    if name not in ("pair", "render"):
        return workloads.build(name, package, 1, docs_dir), plain_calls(package)
    raw = pair_inputs()
    if name == "pair":
        run, check = run_pair, lambda item, ok: ok is True
    else:
        run, check = run_render, lambda item, expr: expr.value == item[1]
    wl = workloads.Workload(
        name=name,
        items=[(package.Era(era), n) for era, n in raw],
        digest=repr(raw),
        run=run,
        check=check,
        setup_call="",
    )
    calls = SimpleNamespace(render_integer=package.render_integer, parse=package.parse)
    return wl, calls


def empty_memos(package: Any) -> None:
    """Empty package's process memos, as in a process that has read nothing."""
    name = package.__name__
    parse = importlib.import_module(f"{name}.parse")
    for lanes in (*parse._TABLES.values(), parse._ALL_LANES):
        lanes.memo.clear()
    parse._STORED[0] = 0
    importlib.import_module(f"{name}.generate")._group_memo.clear()
    importlib.import_module(f"{name}.scan")._READINGS.clear()
    importlib.import_module(f"{name}.cli")._TAILS.clear()


def one_pass(wl: workloads.Workload, calls: Any) -> int:
    """ns for one pass of calls over the pool."""
    run = wl.run
    items = wl.items
    start = perf_counter_ns()
    for item in items:
        run(calls, item)
    return perf_counter_ns() - start


def failures(wl: workloads.Workload, calls: Any) -> int:
    """The items whose result fails the known-answer check, or raises."""
    failed = 0
    for item in wl.items:
        try:
            ok = wl.check(item, wl.run(calls, item))
        except Exception:
            ok = False
        failed += not ok
    return failed


def compare(name: str, base: Any, rounds: int, docs: Path, cold: bool) -> bool:
    """Print one line for workload name; False when a check failed. cold
    empties both sides' memos before each timed pass."""
    packages = (base, hannum)
    sides = []
    for label, package in zip(("base", "change"), packages):
        docs_dir = docs / label
        docs_dir.mkdir()
        sides.append((label, *build(name, package, docs_dir)))
    if sides[0][1].digest != sides[1][1].digest:
        print(f"{name}: the two sides built different inputs", file=sys.stderr)
        return False
    # The scan workload prints its documents' records: keep them off stdout.
    with contextlib.redirect_stdout(None):
        bad = {label: failures(wl, calls) for label, wl, calls in sides}
    if any(bad.values()):
        print(f"{name}: failed checks {bad}", file=sys.stderr)
        return False
    times: dict[str, list[int]] = {"base": [], "change": []}
    with contextlib.redirect_stdout(None):
        for r in range(rounds):
            for label, wl, calls in sides if r % 2 == 0 else sides[::-1]:
                if cold:
                    for package in packages:
                        empty_memos(package)
                times[label].append(one_pass(wl, calls))
    ops = len(sides[0][1].items)
    us = {label: statistics.median(t) / ops / 1000 for label, t in times.items()}
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    # The exclusive method's middle quartile is the median.
    q1, ratio, q3 = statistics.quantiles(ratios, n=4) if rounds > 1 else ratios * 3
    print(
        f"{name}: base {us['base']:.3f} us/op, change {us['change']:.3f} us/op, "
        f"ratio {ratio:.3f} (q1 {q1:.3f}, q3 {q3:.3f}) over {rounds} "
        f"{'cold ' if cold else ''}rounds of {ops} ops"
    )
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path, metavar="BASE_SRC")
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument(
        "--cold", action="store_true", help="empty the memos before each timed pass"
    )
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if Path(hannum.__file__).resolve().parent != ROOT / "src" / "hannum":
        print(f"error: imported hannum from {hannum.__file__}", file=sys.stderr)
        return 2
    base = load_base(args.base_src.resolve())
    names = [args.workload] if args.workload else list(NAMES)
    ok = True
    with tempfile.TemporaryDirectory(prefix="inprocess-ab-") as tmp:
        for name in names:
            docs = Path(tmp) / name
            docs.mkdir()
            ok = compare(name, base, args.rounds, docs, args.cold) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
