#!/usr/bin/env python3
"""Where `import hannum` spends its time, and which modules each call loads.

Usage:
    python scripts/import_cost.py [SRC] [--runs N]

SRC is a src directory that holds hannum (default this checkout's). Each of
N (default 5) fresh `python3 -I -X importtime` interpreters imports
dataclasses, wraps dataclasses.dataclass in a timer, then imports hannum
and every module of src/hannum. The first table gives, per hannum module
and as medians over the N interpreters, the import's self time as
-X importtime reports it (the module's own code, without the imports it
starts) and the part of it spent decorating the module's @dataclass
records, which compiles their methods with exec. Its last two lines sum
them, medians again: over every module, and over the modules that
`import hannum` alone loads, the floor that every call pays.

Then one more fresh interpreter per line imports hannum alone, or runs
the setup call of a workload of bench/workloads.py (built at seed 1 from
this checkout's bench/), as the benchmark's setup_s does after
`import hannum`, and the script prints the hannum modules it left loaded.
The benchmark's trace starts after the import, so it does not see this
cost.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: argv[1] is SRC, argv[2] the modules to import.
_TIMED = """\
import dataclasses, json, sys, time
sys.path.insert(0, sys.argv[1])
spent = {}
plain = dataclasses.dataclass

def timed(cls=None, /, **options):
    def wrap(cls):
        t0 = time.perf_counter()
        record = plain(cls, **options)
        spent[cls.__module__] = (
            spent.get(cls.__module__, 0.0) + time.perf_counter() - t0
        )
        return record
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = timed
for name in sys.argv[2].split():
    __import__(name)
print(json.dumps(spent))
"""

_LOADED = """\
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import hannum
{call}
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "hannum")))
"""

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(hannum\S*)$")


def one_run(src: Path, modules: list[str]) -> dict[str, tuple[float, float]]:
    """module: (self ms, dataclass ms) from one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", "-c", _TIMED, str(src),
         " ".join(modules)],
        capture_output=True, text=True, check=True,
    )
    spent = json.loads(done.stdout)
    selfs = {
        m.group(2): int(m.group(1)) / 1000
        for m in map(_IMPORTTIME.match, done.stderr.splitlines()) if m
    }
    return {name: (ms, spent.get(name, 0.0) * 1000) for name, ms in selfs.items()}


def cost_table(src: Path, runs: int, eager: list[str]) -> list[str]:
    """The per-module lines: medians of self and dataclass ms, and totals
    over every module and over the eager ones."""
    stems = sorted(p.stem for p in (src / "hannum").glob("*.py")
                   if not p.stem.startswith("__"))
    modules = ["hannum", *(f"hannum.{stem}" for stem in stems)]
    samples = [one_run(src, modules) for _ in range(runs)]
    lines = [f"{'module':<20}{'self ms':>9}{'dataclass ms':>14}"]
    for name in samples[0]:  # the order in which imports finished
        selfs, decorations = zip(*(s[name] for s in samples))
        lines.append(f"{name:<20}{statistics.median(selfs):>9.2f}"
                     f"{statistics.median(decorations):>14.2f}")
    for label, names in (("total", samples[0]), ("import hannum", eager)):
        total_self, total_dc = (
            statistics.median(sum(s[name][k] for name in names) for s in samples)
            for k in (0, 1)
        )
        lines.append(f"{label:<20}{total_self:>9.2f}{total_dc:>14.2f}")
    return lines


def setup_calls(src: Path, docs_dir: Path) -> dict[str, str]:
    """Each bench workload's setup call, run after `import hannum`."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "bench"))
    import hannum
    import workloads

    return {
        name: workloads.build(name, hannum, 1, docs_dir).setup_call
        for name in workloads.NAMES
    }


def loaded(src: Path, call: str) -> list[str]:
    """The hannum modules a fresh interpreter holds after import and call."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _LOADED.format(src=str(src), call=call)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", default=str(ROOT / "src"),
                    help="a src directory holding hannum")
    ap.add_argument("--runs", type=int, default=5,
                    help="fresh interpreters timed (default 5)")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "hannum" / "__init__.py").is_file():
        ap.error(f"no hannum sources under {src}")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    eager = loaded(src, "")
    print(f"import hannum and every module, medians of {args.runs} "
          f"fresh interpreters ({src}):")
    print("\n".join(cost_table(src, args.runs, eager)))
    print("hannum modules loaded after import hannum and each bench setup call:")
    print(f"import hannum: {' '.join(eager)}")
    with tempfile.TemporaryDirectory(prefix="import-cost-") as docs_dir:
        for name, call in setup_calls(src, Path(docs_dir)).items():
            print(f"{name}: {' '.join(loaded(src, call))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
