#!/usr/bin/env python3
"""Size a change in one process: a base checkout's hannum against this one's.

Usage:
    python scripts/inprocess_ab.py BASE_SRC [--workload W] [--rounds N]

BASE_SRC is the src directory of another checkout, say one exported with
`git archive`. Its hannum is imported under the package name hannum_base,
beside this checkout's hannum; that works because hannum imports its own
modules relatively. Each workload (all three unless --workload names one)
builds its pool once per side with the unchanged bench/workloads.py, at
seed 1. An untimed pass on each side runs every item through
the workload's known-answer check; a failed check, or pools whose inputs
differ, exits 1. Then N rounds (default 20) each time one full pass of the
pool per side, alternating which side goes first. For each workload it
prints the median µs/op of each side and the median over rounds of the
per-round ratio of base time to change time, so a ratio above 1 means the
change is faster.

Adjacent passes in one process share the host's speed of the moment, so
the ratio sizes a change quickly. It is for sizing only: a claim comes
from scripts/bench_pairs.py, which runs the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns
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


def compare(name: str, base: Any, rounds: int, docs: Path) -> bool:
    """Print one line for workload name; False when a check failed."""
    sides = []
    for label, package in (("base", base), ("change", hannum)):
        docs_dir = docs / label
        docs_dir.mkdir()
        wl = workloads.build(name, package, 1, docs_dir)
        sides.append((label, wl, plain_calls(package)))
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
                times[label].append(one_pass(wl, calls))
    ops = len(sides[0][1].items)
    us = {label: statistics.median(t) / ops / 1000 for label, t in times.items()}
    ratio = statistics.median(b / c for b, c in zip(times["base"], times["change"]))
    print(
        f"{name}: base {us['base']:.3f} us/op, change {us['change']:.3f} us/op, "
        f"ratio {ratio:.3f} over {rounds} rounds of {ops} ops"
    )
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path, metavar="BASE_SRC")
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if Path(hannum.__file__).resolve().parent != ROOT / "src" / "hannum":
        print(f"error: imported hannum from {hannum.__file__}", file=sys.stderr)
        return 2
    base = load_base(args.base_src.resolve())
    names = [args.workload] if args.workload else list(workloads.NAMES)
    ok = True
    with tempfile.TemporaryDirectory(prefix="inprocess-ab-") as tmp:
        for name in names:
            docs = Path(tmp) / name
            docs.mkdir()
            ok = compare(name, base, args.rounds, docs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
