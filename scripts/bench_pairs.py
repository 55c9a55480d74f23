#!/usr/bin/env python3
"""Run alternating benchmark pairs of a base revision and the working tree.

Usage:
    python scripts/bench_pairs.py --base REV --workload W --seeds A-B
        --out BENCH_n.json [--seconds 20] [--claim [METRIC]] [--what TEXT]
        [--tmpdir DIR]

The script exports REV with `git archive` into a temporary directory (under
--tmpdir, default the system's), so nothing is written into the repository's
git metadata. For each seed from A to B it runs the unchanged
`bench/run.py --workload W --seed S --seconds T --trace 0` once in that copy
(the parent) and once in the working tree (the change), alternating which
side goes first, and removes the copy at the end. Both sides run the
benchmark of their own checkout.

The results go into --out, in the layout of
BENCH_10.json: env (both shas and src sha256s), the seeds, per metric the
pairs the change wins, each side's median, quartiles and IQR, the median
change and whether it stays within the metric's bound from BENCHMARK.json,
the attempted and failed ops, and every run. A file that exists already
keeps its other workloads, so one file collects a round over several
workloads. With --claim METRIC the file's claim block is written from this
workload's METRIC (a bare --claim means ops_per_s), in the direction
BENCHMARK.json gives as its `better`: it holds when the change wins at
least nine in ten of at least ten pairs and the median gap exceeds the
parent's IQR.

After writing the file it prints one line per end-to-end metric of the
workload, with the median change and whether it stays within its bound,
and exits 1 when a metric is outside its bound or a larger share of the
change's ops failed than of the parent's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS_FILE = ROOT / "BENCHMARK.json"
QUARTILES_NOTE = (
    "q1/q3 are statistics.quantiles(values, n=4) (the exclusive method) "
    "over the runs of a side"
)
CLAIM_RULE = (
    "change wins at least 9 of 10 pairs and the median gap exceeds the "
    "parent's IQR"
)


def parse_seeds(text: str) -> list[int]:
    """"A-B" as the seeds A..B inclusive, or one seed "A"."""
    first, _, last = text.partition("-")
    a, b = int(first), int(last or first)
    if b < a:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(a, b + 1))


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, q1, q3 and IQR of one side's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "iqr": round(q3 - q1, 4),
    }


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is strictly better."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def summarize(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict[str, object]:
    """One metric over the pairs: each side's quartiles, the median change
    and whether it stays within bound (a fraction of the parent's median)."""
    p, c = quartiles(parent), quartiles(change)
    base = statistics.median(parent)
    moved = (statistics.median(change) - base) / base if base else 0.0
    worse = -moved if better == "higher" else moved
    return {
        "parent": p,
        "change": c,
        "median_change": f"{moved * 100:+.1f} %",
        "within_bound": worse <= bound,
    }


def claim(parent: list[float], change: list[float], better: str) -> dict[str, object]:
    """Whether the change's gain on one metric holds: at least nine in ten of
    at least ten pairs won, and a median gap larger than the parent's IQR."""
    won = wins(parent, change, better)
    gap = statistics.median(change) - statistics.median(parent)
    if better == "lower":
        gap = -gap
    iqr = quartiles(parent)["iqr"]
    pairs = len(parent)
    return {
        "rule": CLAIM_RULE,
        "wins": won,
        "pairs": pairs,
        "median_gap": round(gap, 4),
        "parent_iqr": iqr,
        "holds": pairs >= 10 and won >= math.ceil(0.9 * pairs) and gap > iqr,
    }


def claim_block(
    workload: str, metric: str, runs: list[dict], metrics: list[dict]
) -> dict[str, object]:
    """The file's claim block: the claim on one end-to-end metric of a
    workload's runs, better in the direction its BENCHMARK.json entry gives."""
    better = next(m["better"] for m in metrics if m["name"] == metric)
    series = [[r[side]["metrics"][metric]["value"] for r in runs]
              for side in ("parent", "change")]
    return {"workload": workload, "metric": metric, **claim(*series, better)}


def bound_report(
    workload: str, block: dict, metrics: list[dict]
) -> tuple[list[str], bool]:
    """One line per end-to-end metric of a workload's block, and whether the
    change passes: every metric within its bound, and no larger share of
    its attempted ops failed than of the parent's."""
    lines = []
    ok = True
    for m in metrics:
        summary = block["metrics"][m["name"]]
        within = summary["within_bound"]
        ok = ok and within
        lines.append(
            f"{workload} {m['name']}: {summary['median_change']}, "
            f"{'within' if within else 'OUTSIDE'} its bound of {m['bound']:.0%}"
        )
    failed, attempted = block["failed"], block["attempted"]
    share = {
        side: failed[side] / attempted[side] if attempted[side] else 0.0
        for side in ("parent", "change")
    }
    if share["change"] > share["parent"]:
        ok = False
        lines.append(
            f"{workload} failed ops: change {failed['change']} of "
            f"{attempted['change']}, parent {failed['parent']} of "
            f"{attempted['parent']}"
        )
    return lines, ok


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, parent_dir: Path) -> None:
    """Write the files of rev into parent_dir."""
    archive = parent_dir.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev],
        cwd=ROOT, check=True,
    )
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(parent_dir, filter="data")
        else:
            tar.extractall(parent_dir)
    archive.unlink()


def run_bench(where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in checkout where: its env and its result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=where, check=True, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["env"] = env
    return result


def pairs_block(runs: list[dict], metrics: list[dict], seeds: list[int]) -> dict:
    """A workload's entry of the output file from its runs."""
    block: dict[str, object] = {"seeds": seeds, "pairs": len(runs)}
    series = {
        side: {
            m["name"]: [r[side]["metrics"][m["name"]]["value"] for r in runs]
            for m in metrics
        }
        for side in ("parent", "change")
    }
    block["change_wins"] = {
        m["name"]: wins(series["parent"][m["name"]], series["change"][m["name"]],
                        m["better"])
        for m in metrics
    }
    block["attempted"] = {
        side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "change")
    }
    block["failed"] = {
        side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")
    }
    block["correct"] = all(
        r[side]["correct"] for r in runs for side in ("parent", "change")
    )
    block["metrics"] = {
        m["name"]: summarize(series["parent"][m["name"]],
                             series["change"][m["name"]], m["better"], m["bound"])
        for m in metrics
    }
    block["runs"] = [
        {
            "seed": r["seed"],
            "first": r["first"],
            **{
                side: {
                    m["name"]: round(r[side]["metrics"][m["name"]]["value"], 4)
                    for m in metrics
                }
                for side in ("parent", "change")
            },
        }
        for r in runs
    ]
    return block


def parser(metrics: list[dict]) -> argparse.ArgumentParser:
    """The command line; --claim takes one of the end-to-end metrics."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", nargs="?", const="ops_per_s", metavar="METRIC",
                    choices=[m["name"] for m in metrics],
                    help="write the claim block from this workload's METRIC "
                         "(default ops_per_s)")
    ap.add_argument("--what", help="the change, in one paragraph")
    ap.add_argument("--tmpdir", help="where the parent is exported")
    return ap


def main(argv: list[str] | None = None) -> int:
    metrics = json.loads(METRICS_FILE.read_text(encoding="utf-8"))["end_to_end"]
    args = parser(metrics).parse_args(argv)
    seeds = parse_seeds(args.seeds)
    parent_sha = _git("rev-parse", args.base)

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.tmpdir))
    try:
        parent_dir = workdir / "parent"
        parent_dir.mkdir()
        export(parent_sha, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        runs = []
        watched = args.claim or "ops_per_s"
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_bench(sides[side], args.workload, seed, args.seconds)
            shown = {side: round(run[side]["metrics"][watched]["value"], 4)
                     for side in order}
            print(f"seed {seed} {watched}: {shown}", file=sys.stderr, flush=True)
            runs.append(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if args.what:
        doc["what"] = args.what
    head = _git("rev-parse", "HEAD")
    clean = not _git("status", "--porcelain", "--", "src", "bench")
    doc["env"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "parent_git_sha": parent_sha,
        "parent_src_sha256": runs[0]["parent"]["env"]["src_sha256"],
        "change_git_sha": head if clean else f"uncommitted changes on {head}",
        "change_src_sha256": runs[0]["change"]["env"]["src_sha256"],
        "seconds": args.seconds,
    }
    doc["quartiles_note"] = QUARTILES_NOTE
    block = pairs_block(runs, metrics, seeds)
    if args.claim:
        doc["claim"] = claim_block(args.workload, args.claim, runs, metrics)
    doc.setdefault("workloads", {})[args.workload] = block
    out.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    lines, ok = bound_report(args.workload, block, metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
