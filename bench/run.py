#!/usr/bin/env python3
"""Benchmark for hannum: one workload, one seed, one closed-loop caller.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Workloads are roundtrip, classify and scan (see bench/README.md). With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics,
writing every span to .bench_out/trace-<workload>.tsv. Each metric is
printed on its own line as "metric <name> <value> <unit>", and the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

# The script's directory is on sys.path, so these are the benchmark's own.
import hostspeed
import workloads
from spans import Tracer, plain_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Host speed is measured after every segment of about this much work.
SEGMENT_NS = 150_000_000
# Latency percentiles are taken over groups of whole passes with at least
# this many ops, so p99 has at least ten samples beyond it.
GROUP_OPS = 1000
# Fresh interpreters timed per run for setup_s, started at even steps through
# the run; one untimed start first writes the bytecode caches.
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60

_SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
sys.path.insert(0, sys.argv[2])
before = hostspeed.speed()
t0 = time.perf_counter()
import hannum
{call}
elapsed = time.perf_counter() - t0
print(elapsed, (before + hostspeed.speed()) / 2)
"""


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Setup:
    """Times `import hannum` plus the workload's first call in fresh
    interpreters, scaled by the host speed the child measures around it."""

    def __init__(self, wl: workloads.Workload) -> None:
        code = _SETUP_CODE.format(call=wl.setup_call)
        self.cmd = [sys.executable, "-I", "-c", code, str(HERE), str(SRC)]
        self.times: list[float] = []
        self.raw: list[float] = []
        self._spawn()  # writes the bytecode caches; not counted
        self.times.clear()
        self.raw.clear()

    def _spawn(self) -> None:
        done = subprocess.run(
            self.cmd,
            capture_output=True,
            text=True,
            check=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        elapsed, speed = map(float, done.stdout.split()[-2:])
        self.raw.append(elapsed)
        self.times.append(elapsed * speed)

    def due(self, share_done: float) -> None:
        """Spawn the interpreters due once share_done of the run has passed."""
        while len(self.times) < SETUP_RUNS and (
            len(self.times) + 0.5 <= share_done * SETUP_RUNS
        ):
            self._spawn()


@dataclass
class Pass:
    """One complete pass over the pool: the same work every time."""

    traced: bool
    first_op: int
    ops: int
    elapsed_ns: int = 0
    scaled_ns: float = 0.0  # elapsed_ns, each segment times its host speed

    @property
    def rate(self) -> float:
        """Ops per second, scaled to host speed 1.0."""
        return self.ops / self.scaled_ns * 1e9


class Loop:
    """Runs passes over a workload's pool and counts ops and failures.

    A pass is cut into segments of about SEGMENT_NS, each followed by a
    host-speed burst. A segment's times are multiplied by the mean speed of
    the bursts on either side, so every time reads as on a host of speed
    1.0. After a complete pass, scaled_us holds each op's latency.
    """

    def __init__(self, wl: workloads.Workload, traced: bool) -> None:
        self.wl = wl
        self.ops = 0
        self.failed = 0
        self.latency_ns = array("q", bytes(8 * len(wl.items)))
        self.scaled_us = array("d", bytes(8 * len(wl.items)))
        self.speed = hostspeed.speed()  # the latest burst
        # Host speed of each op of a complete traced pass, 0 for other ops.
        self.op_speed = array("d") if traced else None

    def _failure(self, item: object, exc: BaseException | None) -> None:
        if self.failed == 0:
            print(f"first failure on input {item!r}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)
        self.failed += 1

    def one_pass(
        self, calls: SimpleNamespace, tracer: Tracer | None, deadline_ns: int
    ) -> Pass | None:
        """Every item once, in order; None if the deadline cut the pass.

        Latency covers the library call; the check runs after it. In a
        traced pass each op is a root span with the check as a child.
        """
        run, check = self.wl.run, self.wl.check
        lat, scaled = self.latency_ns, self.scaled_us
        done = Pass(tracer is not None, self.ops, len(self.wl.items))
        last = done.ops - 1
        seg_first = 0
        seg_start = perf_counter_ns()
        for i, item in enumerate(self.wl.items):
            exc = None
            if tracer is not None:
                tracer.op_id = self.ops
                root = tracer.open()
            t0 = perf_counter_ns()
            try:
                result = run(calls, item)
                t1 = perf_counter_ns()
                if tracer is None:
                    ok = check(item, result)
                else:
                    span = tracer.open()
                    try:
                        ok = check(item, result)
                    finally:
                        tracer.close(span, "bench.check")
            except Exception as e:  # an unexpected exception is a failed op
                t1 = perf_counter_ns()
                ok, exc = False, e
            finally:
                if tracer is not None:
                    tracer.close(root, "op")
            lat[i] = t1 - t0
            self.ops += 1
            if not ok:
                self._failure(item, exc)
            if t1 >= deadline_ns:
                if self.op_speed is not None:
                    del self.op_speed[done.first_op :]
                    self.op_speed.extend([0.0] * (self.ops - done.first_op))
                return None
            if i == last or t1 - seg_start >= SEGMENT_NS:
                elapsed = perf_counter_ns() - seg_start
                after = hostspeed.speed()
                speed = (self.speed + after) / 2
                self.speed = after
                done.elapsed_ns += elapsed
                done.scaled_ns += elapsed * speed
                for j in range(seg_first, i + 1):
                    scaled[j] = lat[j] * speed / 1e3
                if self.op_speed is not None:
                    fill = speed if tracer is not None else 0.0
                    self.op_speed.extend([fill] * (i + 1 - seg_first))
                seg_first = i + 1
                seg_start = perf_counter_ns()
        return done


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def measure(
    wl: workloads.Workload, hannum: object, seconds: float, traced: bool
) -> tuple[Loop, dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
    """Run passes for `seconds` of measured time, alternating plain and
    traced passes when traced. Returns the loop, the metrics to report and
    the figures to print only, each as name -> (value, unit).

    Throughput is the median over plain passes. Latency percentiles are
    taken over groups of whole plain passes of at least GROUP_OPS ops each,
    and the median over groups is reported, so a group disturbed by another
    process does not decide the result.
    """
    plain = plain_calls(hannum)
    for item in wl.items:  # warm-up: fill lazy caches before timing
        try:
            wl.run(plain, item)
        except Exception:  # counted when the timed loop meets the input
            pass

    setup = None if traced else Setup(wl)
    loop = Loop(wl, traced)
    tracer = Tracer()
    wrapped = tracer.entry_points(hannum)
    budget_ns = int(seconds * 1e9)
    used_ns = 0
    passes: list[Pass] = []
    group = array("d")
    p50s: list[float] = []
    p99s: list[float] = []
    needed = 2 if traced else 1  # passes completed whatever the budget
    while used_ns < budget_ns or len(passes) < needed:
        start = perf_counter_ns()
        deadline = start + max(budget_ns - used_ns, 0)
        if len(passes) < needed:
            deadline = 1 << 62
        if traced and len(passes) % 2:
            tracer.install(hannum)
            try:
                done = loop.one_pass(wrapped, tracer, deadline)
            finally:
                tracer.uninstall()
        else:
            done = loop.one_pass(plain, None, deadline)
        used_ns += perf_counter_ns() - start
        if done is not None:
            passes.append(done)
            if not done.traced:
                group.extend(loop.scaled_us)
            if len(group) >= GROUP_OPS:
                ordered = sorted(group)
                p50s.append(_percentile(ordered, 0.50))
                p99s.append(_percentile(ordered, 0.99))
                del group[:]
        if setup is not None:
            setup.due(used_ns / budget_ns)

    plain_passes = [p for p in passes if not p.traced]
    ops_per_s = statistics.median(p.rate for p in plain_passes)
    info: dict[str, tuple[float, str]] = {
        "fail_ratio": (loop.failed / loop.ops, "ratio"),
        "passes": (len(passes), "count"),
        "host_speed": (
            statistics.median(p.scaled_ns / p.elapsed_ns for p in passes), "ratio"
        ),
        "ops_per_s.unscaled": (
            statistics.median(p.ops / p.elapsed_ns * 1e9 for p in plain_passes),
            "1/s",
        ),
    }
    if traced:
        traced_passes = [p for p in passes if p.traced]
        traced_ops_per_s = statistics.median(p.rate for p in traced_passes)
        info["ops_per_s.untraced"] = (ops_per_s, "1/s")
        info["ops_per_s.traced"] = (traced_ops_per_s, "1/s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}.tsv")
        spans_per_op = sum(map(wl.spans, wl.items)) / len(wl.items)
        metrics = tracer.layer_metrics(loop.op_speed, spans_per_op)
        metrics["trace.overhead_ratio"] = (traced_ops_per_s / ops_per_s, "ratio")
        return loop, metrics, info

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert setup is not None
    setup.due(1.0)
    if not p50s:  # a run too short for one full group
        ordered = sorted(group)
        p50s.append(_percentile(ordered, 0.50))
        p99s.append(_percentile(ordered, 0.99))
    info["latency_groups"] = (len(p50s), "count")
    info["setup_s.unscaled"] = (statistics.median(setup.raw), "s")
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_us_p50": (statistics.median(p50s), "us"),
        "op_us_p99": (statistics.median(p99s), "us"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return loop, metrics, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "hannum" / "__init__.py").is_file():
        print(f"error: no hannum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hannum
    import hannum.cli

    if Path(hannum.__file__).resolve().parent != SRC / "hannum":
        print(f"error: imported hannum from {hannum.__file__}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args)))
    OUT.mkdir(exist_ok=True)
    docs_dir = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT))
    try:
        wl = workloads.build(args.workload, hannum, args.seed, docs_dir)
        print(f"inputs_sha256 {wl.name} {wl.digest}")
        loop, metrics, info = measure(wl, hannum, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.ops,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
