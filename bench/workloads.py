"""Seeded inputs, one operation and one known-answer check per workload.

Every workload is a closed loop: one caller in one thread waits for each
result before it sends the next input. Inputs are built from the seed
before timing starts, and their sha256 is reported, so two commits can be
shown to have run on identical inputs. Nothing here imports the repository's
scripts; the scan surfaces come from the literal table below, not from the
renderer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# (era id, largest renderable value, smallest renderable value), in
# chronological order. Kept literal so that a change to the library's
# profiles cannot shift the generated inputs.
ERAS = (
    ("shang-oracle", 10**8 - 1, 1),
    ("zhou-bronze", 10**8 - 1, 1),
    ("warring-states", 10**8 - 1, 1),
    ("suanshushu", 10**8 - 1, 1),
    ("dunhuang", 10**8 - 1, 1),
    ("nine-chapters", 10**8 - 1, 1),
    ("song-qin", 10**12 - 1, 1),
    ("contemporary", 10**12 - 1, 0),
)
EARLY = ("shang-oracle", "zhou-bronze", "warring-states")
SCRIPTS = ("traditional", "simplified", "pinyin")

# The timed loop makes passes over the pool, after an untimed one that
# warms lazily filled caches (the renderer memoizes digit groups). A pool
# holds enough inputs that its slowest 1 % barely moves with the seed.
ROUNDTRIP_POOL = 8_000
CLASSIFY_POOL = 8_000

INVENTORY = "一二三四五六七八九兩两十百千萬万億亿零有又單单另"


@dataclass
class Workload:
    """A named pool of inputs with the operation and check that consume it.

    run(fns, item) makes the library calls through fns, a namespace holding
    render_integer, parse_text, classify and main, so a traced run can pass
    wrapped versions. check(item, result) is the known-answer test. spans(item)
    is the number of numeral spans an item holds (scan only).
    """

    name: str
    items: list[Any]
    digest: str
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], bool]
    setup_call: str  # run after `import hannum` with contextlib and io imported
    spans: Callable[[Any], int] = lambda item: 0


def _digest(data: object) -> str:
    return hashlib.sha256(repr(data).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# roundtrip: render -> text -> parse_text under one era
# ---------------------------------------------------------------------------


def roundtrip_inputs(seed: int) -> list[tuple[str, int, str]]:
    """(era id, n, script), shuffled. Eras, scripts and the two ranges of n
    come in equal shares, so the seed moves values, not the mix: half of
    the n are dense up to 10^6, half uniform up to the era's ceiling."""
    rng = random.Random(f"roundtrip:{seed}")
    items = []
    for i in range(ROUNDTRIP_POOL):
        era, top, low = ERAS[i % len(ERAS)]
        dense = i // len(ERAS) % 2 == 0
        n = rng.randint(low, 10**6 if dense else top)
        items.append((era, n, SCRIPTS[i // (2 * len(ERAS)) % len(SCRIPTS)]))
    rng.shuffle(items)
    return items


def _roundtrip(hannum: Any, seed: int) -> Workload:
    raw = roundtrip_inputs(seed)
    items = [(hannum.Era(e), n, hannum.Script(s)) for e, n, s in raw]

    def run(f: Any, item: Any) -> int:
        era, n, script = item
        return f.parse_text(f.render_integer(n, era).text(script), era).value

    return Workload(
        name="roundtrip",
        items=items,
        digest=_digest(raw),
        run=run,
        check=lambda item, value: value == item[1],
        setup_call=(
            "hannum.parse_text(hannum.render_integer(1305000080)"
            ".text(), 'contemporary')"
        ),
    )


# ---------------------------------------------------------------------------
# classify: all eras over era-legal renderings, a third of them mutated
# ---------------------------------------------------------------------------


def _mutate(rng: random.Random, text: str) -> str:
    """Insert, delete or duplicate one inventory character; never empties."""
    op = rng.randrange(3)
    if op == 1 and len(text) == 1:
        op = 0
    if op == 0:
        pos = rng.randint(0, len(text))
        return text[:pos] + rng.choice(INVENTORY) + text[pos:]
    pos = rng.randrange(len(text))
    if op == 1:
        return text[:pos] + text[pos + 1 :]
    return text[: pos + 1] + text[pos:]


def classify_inputs(hannum: Any, seed: int) -> list[tuple[str, str, int, bool]]:
    """(text, source era id, n, mutated), shuffled. Unmutated texts are
    renderings of n under the source era. Eras come in equal shares, and a
    third of each era's items are mutated."""
    H = hannum
    rng = random.Random(f"classify:{seed}")
    items = []
    for i in range(CLASSIFY_POOL):
        era, top, low = ERAS[i % len(ERAS)]
        mutated = i // len(ERAS) % 3 == 2
        n = rng.randint(low, 10**6 if rng.random() < 0.5 else top)
        script = H.Script(rng.choice(SCRIPTS[:2]))
        opts = H.RenderOptions(script=script)
        if era in EARLY:
            opts = H.RenderOptions(script=script, use_you=rng.choice((None, True)))
        elif era == "contemporary":
            style = rng.choice((H.TwoStyle.ALWAYS_ER, H.TwoStyle.PREFER_LIANG))
            opts = H.RenderOptions(script=script, two_style=style)
            if rng.random() < 0.25:
                # Elliptic forms need [pivot][digit][pivot] on adjacent ranks.
                k = rng.randint(2, 7)
                n = rng.randint(1, 99) * 10**k + rng.randint(1, 9) * 10 ** (k - 1)
                opts = H.RenderOptions(script=script, two_style=style, elliptic=True)
        try:
            text = H.render_integer(n, H.Era(era), opts).text(script)
        except H.EllipsisUnavailable:
            opts = H.RenderOptions(script=script, two_style=opts.two_style)
            text = H.render_integer(n, H.Era(era), opts).text(script)
        if mutated:
            text = _mutate(rng, text)
        items.append((text, era, n, mutated))
    rng.shuffle(items)
    return items


def _classify(hannum: Any, seed: int) -> Workload:
    raw = classify_inputs(hannum, seed)
    items = [(t, hannum.Era(e), n, m) for t, e, n, m in raw]

    def check(item: Any, report: Any) -> bool:
        _, era, n, mutated = item
        verdicts = report.verdicts
        if len(verdicts) != len(ERAS):
            return False
        for v in verdicts:
            if (v.value is None) == (v.error is None):
                return False
        # The three early eras share one grammar.
        if not verdicts[0].value == verdicts[1].value == verdicts[2].value:
            return False
        if mutated:
            return True
        own = [v for v in verdicts if v.era is era]
        return len(own) == 1 and own[0].value == n and era in report.consistent

    return Workload(
        name="classify",
        items=items,
        digest=_digest(raw),
        run=lambda f, item: f.classify(item[0]),
        check=check,
        setup_call="hannum.classify('十有五')",
    )


# ---------------------------------------------------------------------------
# scan: `hannum scan --json` over documents with planted numerals
# ---------------------------------------------------------------------------

_ERA_LETTERS = dict(zip("SZWUDNQC", (e for e, _, _ in ERAS)))


def _era_set(letters: str) -> str:
    return "+".join(_ERA_LETTERS[c] for c in letters) or "none"


# Planted surfaces with their known scan tallies: tags y = with_you,
# l = with_ling, 2 = with_liang, e = elliptic, x = parse error; letters name
# the consistent eras (S shang-oracle, Z zhou-bronze, W warring-states,
# U suanshushu, D dunhuang, N nine-chapters, Q song-qin, C contemporary).
WELL_FORMED = (
    ("七", "", "SZWUDNQC"),
    ("六十四", "", "SZWUDNQC"),
    ("一百一十一", "", "SZWDNQC"),
    ("九百九十九", "", "SZWUDNQC"),
    ("八萬六千四百", "", "SZWUDNQC"),
    ("十二萬三千四百五十六", "", "SZWUDC"),
    ("十五", "", "SZWUDC"),
    ("八万六千四百", "", "SZWUDNQC"),
    ("三亿", "", "QC"),
    ("一千二百万", "", "SZWDNQC"),
    ("一千一百萬", "", "SZWDNQC"),
    ("一百一十", "", "SZWDNQC"),
    ("千二百", "", "SZWU"),
    ("百一十", "", "SZWU"),
    ("十有五", "y", "SZW"),
    ("二十有五", "y", "SZW"),
    ("百有五十", "y", "SZW"),
    ("二百又十", "y", "SZW"),
    ("千有二百", "y", "SZW"),
    ("一百零五", "l", "QC"),
    ("一千零五十", "l", "QC"),
    ("一萬零五", "l", "QC"),
    ("三萬零七十", "l", "QC"),
    ("九十萬零九", "l", "QC"),
    ("一万零五", "l", "QC"),
    ("一億零五百萬", "l", "QC"),
    ("零", "l", "C"),
    ("一百單五", "l", "Q"),
    ("一千另五", "l", "Q"),
    ("二千單八", "l", "Q"),
    ("兩千兩百二十二", "2", "C"),
    ("两万二千", "2", "C"),
    ("兩百五十", "2", "C"),
    ("两百三十五", "2", "C"),
    ("兩百億", "2", "C"),
    ("一百五", "e", "SZWDNQC"),
    ("一萬五", "e", "SZWDNQC"),
    ("三千四", "e", "SZWUDNQC"),
    ("五萬六", "e", "SZWUDNQC"),
    ("百五", "e", "SZWU"),
)
MALFORMED = (
    ("十十五", "x", ""),
    ("百百", "x", ""),
    ("一一", "x", ""),
    ("零零", "xl", ""),
    ("萬萬", "x", ""),
    ("五十五十", "x", ""),
    ("千千萬", "x", ""),
    ("二兩", "x2", ""),
)

# Prose filler: no core numeral character. 有/又 appear beside non-numerals,
# where the scanner must not join them to a span.
FILLER = "山水風雲花鳥草木石門窗庭院詩書畫琴棋酒茶燈火夜晨霧雨雪的是在人有又"

# (numerals planted, mean filler run between them): paragraph- to
# page-sized documents (about 120 to 1200 characters) from sparse prose to
# dense tables. The grid is fixed so that the seed changes content, not the
# amount of work.
DOC_SPECS = tuple(
    (max(2, round(size / (gap + 4.5))), gap)
    for size in (120, 300, 600, 1200)
    for gap in (60, 14, 3)
)
DOC_COPIES = 2


def _tally(planted: list[tuple[str, str, str]]) -> dict[str, object]:
    summary: dict[str, object] = {
        "expressions": len(planted),
        "parsed": sum("x" not in tags for _, tags, _ in planted),
        "errors": sum("x" in tags for _, tags, _ in planted),
        "with_you": sum("y" in tags for _, tags, _ in planted),
        "without_you": sum("y" not in tags for _, tags, _ in planted),
        "with_ling": sum("l" in tags for _, tags, _ in planted),
        "with_liang": sum("2" in tags for _, tags, _ in planted),
        "elliptic": sum("e" in tags for _, tags, _ in planted),
    }
    era_sets: dict[str, int] = {}
    for _, _, letters in planted:
        key = _era_set(letters)
        era_sets[key] = era_sets.get(key, 0) + 1
    summary["era_sets"] = era_sets
    return summary


def _document(
    rng: random.Random, deck: list[tuple[str, str, str]], count: int, gap: int
) -> tuple[str, dict[str, object]]:
    """count numerals dealt from deck, then 1 malformed span per 20."""
    table = gap < 8
    pieces: list[str] = []
    planted: list[tuple[str, str, str]] = []
    for _ in range(count):
        run = rng.randint(max(2, gap // 2), max(2, gap * 3 // 2))
        filler = "".join(rng.choice(FILLER) for _ in range(run))
        if table:
            filler += "\n" if len(planted) % 4 == 3 else "\t"
        elif rng.random() < 0.3:
            filler += rng.choice("。，、")
        if not deck:  # deal every surface once before any repeats
            deck += WELL_FORMED
            rng.shuffle(deck)
        entry = deck.pop()
        planted.append(entry)
        pieces += (filler, entry[0])
    for _ in range(1 + count // 20):
        entry = rng.choice(MALFORMED)
        pos = rng.randrange(len(planted))
        planted.insert(pos, entry)
        pieces.insert(2 * pos, entry[0])
        pieces.insert(2 * pos, "".join(rng.choice(FILLER) for _ in range(3)))
    pieces.append("。\n")
    return "".join(pieces), _tally(planted)


def scan_inputs(seed: int) -> list[tuple[str, dict[str, object]]]:
    """(document text, expected summary) for every document, shuffled."""
    rng = random.Random(f"scan:{seed}")
    deck: list[tuple[str, str, str]] = []
    docs = [
        _document(rng, deck, count, gap)
        for _ in range(DOC_COPIES)
        for count, gap in DOC_SPECS
    ]
    rng.shuffle(docs)
    return docs


def _scan(seed: int, docs_dir: Path) -> Workload:
    raw = scan_inputs(seed)
    # The first call of setup_s scans one fixed document, the same for
    # every seed.
    setup_doc = docs_dir / "setup.txt"
    setup_doc.write_text(
        _document(random.Random("scan:setup"), [], 40, 14)[0], encoding="utf-8"
    )
    items = []
    for i, (text, summary) in enumerate(raw):
        path = docs_dir / f"doc{i:03d}.txt"
        path.write_text(text, encoding="utf-8")
        items.append((str(path), summary))

    def run(f: Any, item: Any) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = f.main(["scan", "--json", item[0]])
        return code, out.getvalue()

    def check(item: Any, result: tuple[int, str]) -> bool:
        code, out = result
        lines = out.splitlines()
        expected = item[1]
        return (
            code == 0
            and len(lines) == expected["expressions"] + 1
            and json.loads(lines[-1]) == {"summary": expected}
        )

    return Workload(
        name="scan",
        items=items,
        digest=_digest(raw),
        run=run,
        check=check,
        setup_call=(
            "import hannum.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    hannum.cli.main(['scan', '--json', {str(setup_doc)!r}])"
        ),
        spans=lambda item: item[1]["expressions"],
    )


NAMES = ("roundtrip", "classify", "scan")


def build(name: str, hannum: Any, seed: int, docs_dir: Path) -> Workload:
    if name == "roundtrip":
        return _roundtrip(hannum, seed)
    if name == "classify":
        return _classify(hannum, seed)
    return _scan(seed, docs_dir)
