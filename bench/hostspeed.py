"""Host speed, from a fixed pure-Python reference loop.

On a shared host, other tenants slow the interpreter by up to half for
seconds at a time, and a whole run can fall into a slow spell. The
benchmark times a short burst of this loop between segments of work and
scales each segment's times by the speed of the bursts around it, so
figures from slow and quiet spells agree. The loop does the kinds of
work hannum does (string iteration, dict lookups, small tuples and
objects, exceptions, joins) and never changes with the library.
"""

from __future__ import annotations

from time import perf_counter_ns

# Reference-loop units per second that count as speed 1.0: about the loop's
# rate on an idle 2-vCPU x86-64 host under CPython 3.11.
UNITS_PER_S = 60_000.0
BURST_NS = 20_000_000

_TABLE = {c: i for i, c in enumerate("abcdefghijklmnopqrstuvwxyz")}
_WORDS = (
    "hannum", "numeral", "pivot", "digit", "grammar", "era", "scan",
    "token", "classify", "render", "parse", "liang", "ling", "you",
)


class _Box:
    __slots__ = ("codes", "size")

    def __init__(self, codes: tuple[int, ...], size: int) -> None:
        self.codes = codes
        self.size = size


def _unit() -> int:
    total = 0
    for word in _WORDS:
        box = _Box(tuple([_TABLE[c] for c in word]), len(word))
        try:
            if box.size > 6:
                raise ValueError(word)
        except ValueError as exc:
            total += len(exc.args[0])
        total += sum(box.codes) + len("-".join(word))
    return total


def speed() -> float:
    """Reference-loop rate over one burst, as a multiple of UNITS_PER_S."""
    start = perf_counter_ns()
    units = 0
    while True:
        _unit()
        units += 1
        elapsed = perf_counter_ns() - start
        if elapsed >= BURST_NS:
            return units / elapsed * 1e9 / UNITS_PER_S
