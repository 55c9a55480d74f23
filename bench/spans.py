"""Spans at hannum's module boundaries, and the per-layer metrics they give.

A traced run replaces the public functions at the names each hannum
submodule calls them by, so nothing inside the library changes. Every span
records its name, start, end, parent span and op id; spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import operator
from array import array
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any, Callable

from workloads import ERAS, SCRIPTS

ERA_IDS = tuple(era for era, _, _ in ERAS)
MODULES = ("generate", "parse", "chronolect", "scan", "cli", "bench")

# Namers turn (args, kwargs, accepted) into a span name.
Namer = Callable[[tuple, dict, bool], str]


def _fixed(name: str) -> Namer:
    return lambda args, kwargs, ok: name


def _parse_name(args: tuple, kwargs: dict, ok: bool) -> str:
    era = args[1] if len(args) > 1 else kwargs.get("era")
    label = "lenient" if era is None else getattr(era, "value", era)
    return f"parse.parse.{label}.{'accept' if ok else 'reject'}"


def _parse_text_name(args: tuple, kwargs: dict, ok: bool) -> str:
    text = args[0] if args else kwargs["text"]
    han = text[:1] >= "\u2e80"  # the CJK blocks start at U+2E80; pinyin is Latin
    return "parse.parse_text.han" if han else "parse.parse_text.pinyin"


def _text_name(args: tuple, kwargs: dict, ok: bool) -> str:
    script = args[1] if len(args) > 1 else kwargs.get("script")
    return f"generate.text.{getattr(script, 'value', 'traditional')}"


class Tracer:
    """Records nested spans into flat arrays, one slot per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self) -> int:
        idx = len(self.name)
        self.name.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name[idx] = nid

    def wrap(self, fn: Callable, namer: Namer) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, namer(args, kwargs, False))
                raise
            self.close(idx, namer(args, kwargs, True))
            return result

        return traced

    # -- patching the library ------------------------------------------------

    def install(self, hannum: Any) -> None:
        """Wrap the functions at the names hannum's submodules call them by."""
        parse_mod = importlib.import_module("hannum.parse")
        targets = (
            (hannum.chronolect, "parse", _parse_name),
            (hannum.chronolect, "tokenize", _fixed("parse.tokenize")),
            (hannum.scan, "parse", _parse_name),
            (hannum.scan, "tokenize", _fixed("parse.tokenize")),
            (hannum.scan, "classify", _fixed("chronolect.classify")),
            (hannum.cli, "scan_text", _fixed("scan.scan_text")),
            (parse_mod, "parse", _parse_name),
            (hannum.NumeralExpression, "text", _text_name),
        )
        for owner, attr, namer in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, namer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def entry_points(self, hannum: Any) -> SimpleNamespace:
        """The benchmark's own calls into hannum, wrapped."""
        return SimpleNamespace(
            render_integer=self.wrap(
                hannum.render_integer, _fixed("generate.render_integer")
            ),
            parse_text=self.wrap(hannum.parse_text, _parse_text_name),
            classify=self.wrap(hannum.classify, _fixed("chronolect.classify")),
            main=self.wrap(hannum.cli.main, _fixed("cli.main")),
        )

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )

    def layer_metrics(
        self, scale: array, spans_per_op: float
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops.

        scale[op id] is the host speed of the op's segment, by which its
        span times are multiplied, and 0 for ops outside complete traced
        passes. spans_per_op is the
        mean number of numeral spans an op scans. *_us metrics are mean self
        time per call in microseconds, 0 when the layer was not called.
        """
        ops = sum(1 for s in scale if s)
        dur = array("q", map(operator.sub, self.end, self.start))
        child = array("q", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        count = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            speed = scale[self.op[i]]
            if speed:
                count[nid] += 1
                self_ns[nid] += (dur[i] - child[i]) * speed
        by_name = {name: (count[k], self_ns[k]) for k, name in enumerate(self.names)}

        def per_call_us(name: str) -> float:
            calls, total = by_name.get(name, (0, 0))
            return total / calls / 1e3 if calls else 0.0

        def calls(prefix: str) -> int:
            return sum(c for name, (c, _) in by_name.items() if name.startswith(prefix))

        # Every span lies inside an op, so self times partition op time.
        op_ns = sum(t for _, t in by_name.values())
        parse_calls = calls("parse.parse.")
        tokenize_calls = calls("parse.tokenize")
        m: dict[str, tuple[float, str]] = {
            "generate.render_integer.self_us": (
                per_call_us("generate.render_integer"), "us"
            ),
        }
        for script in SCRIPTS:
            m[f"generate.text.{script}.self_us"] = (
                per_call_us(f"generate.text.{script}"), "us"
            )
        for kind in ("han", "pinyin"):
            m[f"parse.parse_text.{kind}.self_us"] = (
                per_call_us(f"parse.parse_text.{kind}"), "us"
            )
        for era in (*ERA_IDS, "lenient"):
            for verdict in ("accept", "reject"):
                m[f"parse.parse.{era}.{verdict}_us"] = (
                    per_call_us(f"parse.parse.{era}.{verdict}"), "us"
                )
        m["parse.parse.calls_per_op"] = (parse_calls / ops, "count")
        rejects = sum(
            c for name, (c, _) in by_name.items()
            if name.startswith("parse.parse.") and name.endswith(".reject")
        )
        m["parse.parse.reject_ratio"] = (
            rejects / parse_calls if parse_calls else 0.0, "ratio"
        )
        m["parse.tokenize.calls_per_op"] = (tokenize_calls / ops, "count")
        spans = spans_per_op * ops
        m["parse.parse.calls_per_span"] = (
            parse_calls / spans if spans else 0.0, "count"
        )
        m["parse.tokenize.calls_per_span"] = (
            tokenize_calls / spans if spans else 0.0, "count"
        )
        m["chronolect.classify.self_us"] = (per_call_us("chronolect.classify"), "us")
        m["scan.scan_text.self_us"] = (per_call_us("scan.scan_text"), "us")
        m["scan.spans_per_op"] = (spans_per_op, "count")
        m["cli.main.self_us"] = (per_call_us("cli.main"), "us")
        for module in MODULES:
            own = sum(
                t for name, (_, t) in by_name.items()
                if name.split(".", 1)[0] == module
            )
            m[f"{module}.share"] = (own / op_ns if op_ns else 0.0, "ratio")
        return m


def plain_calls(hannum: Any) -> SimpleNamespace:
    """The library entry points an op calls, unwrapped."""
    return SimpleNamespace(
        render_integer=hannum.render_integer,
        parse_text=hannum.parse_text,
        classify=hannum.classify,
        main=hannum.cli.main,
    )
