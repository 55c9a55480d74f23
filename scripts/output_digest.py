#!/usr/bin/env python3
"""Print one sha256 over the CLI's output on a fixed set of inputs.

Usage:
    PYTHONPATH=path/to/checkout/src python scripts/output_digest.py

The script runs hannum.cli.main in process and hashes, for every run, its
arguments, exit code, stdout and stderr. It prints the hex digest and the
number of runs. Two checkouts whose outputs are byte-identical on these
inputs print the same line, so running it once under each checkout's src
compares them. Without PYTHONPATH, hannum comes from this checkout's src.

The runs:
- scan in plain, --json and --csv mode, with the document on stdin: the
  synthetic corpora of seeds 7 and 11 (scripts/synthetic_corpus.py), the
  benchmark's scan documents of seeds 3 and 4 (bench/workloads.py), and one
  document that holds every malformed benchmark surface, elliptic spans,
  quotes, backslashes and CRLF line ends, and one that holds 〇 廿 卅 卌,
  financial forms joined to a numeral and alone in prose, and a sentence
  of the forms that break each of liǎng's two rules;
- classify --json and parse --json --lenient on tokenizer edge texts: a
  whitespace character and an odd character (NUL, U+FFFE, a lone surrogate,
  a letter, another space) at every pair of offsets in two numerals, and
  texts of whitespace or NUL alone;
- the same two commands on pinyin as written, in upper case, in NFD and
  without tone marks, the last also with parse --toneless, and on texts
  with no graph that open with a CJK ideograph or 〇, which AUTO reads as
  Han;
- gen --json under every era and the 36 flag sets (--two-style x
  --you/--no-you/neither x --elliptic x --leading-ten-one) on a fixed list
  of values around the pivots, the group boundaries and the ceilings;
- scan --json on every document once more, so that its records come from
  the readings and JSON tails that the runs before it left in the process;
- last, USAGE_ARGVS: help text, usage errors and the argvs where a
  subcommand's parser and the top parser could part, each scan among them
  reading the mixed document from stdin.

A run that exits through SystemExit, as a help or usage error does, is
recorded with its exit code. Help text is wrapped to COLUMNS, which the
script sets to 80 while it runs, so the line does not depend on the
terminal; it still depends on the interpreter's argparse, so compare two
checkouts under one interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import unicodedata
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
# Appended, not prepended: a PYTHONPATH that names another checkout's src
# comes first.
for _sub in ("src", "scripts", "bench"):
    sys.path.append(str(ROOT / _sub))

import hannum.cli  # noqa: E402
from hannum import CHRONOLOGY  # noqa: E402
from synthetic_corpus import build_corpus  # noqa: E402
from workloads import MALFORMED, scan_inputs  # noqa: E402

# Literal inputs, so that they do not depend on the renderer under test.
_NUMERALS = ("十三亿零五百万零八十", "三萬另又五")
_SPACES = ("\t", "\u3000")
_ODD = ("\x00", "\ufffe", "\ud800", "a", " ")
_BARE = ("", " ", "\t\n", "\x00", "\x00\x00", " \x00\t", "\x00 一")
_PINYIN = (
    "yī bǎi líng wǔ",
    "sān wàn líng qī shí",
    "liǎng qiān èr bǎi",
    "shí yòu wǔ",
    "yī yì líng wǔ bǎi wàn",
    "wǔ shí",
)
# No graph of the table, and a CJK ideograph or 〇 first but whitespace.
_IDEOGRAPH_LEADS = ("卅", "〇", "壹佰伍拾", " 卅", "卅 yī")
_GEN_VALUES = (
    -1, 0, 1, 2, 10, 12, 15, 20, 100, 101, 110, 150, 222, 1010, 2002, 10**4,
    10_010, 10**5, 115_000, 2 * 10**5, 10**6, 10**7, 10**8 - 1, 10**8,
    100_010_000, 10**12 - 1, 10**12,
)
_GEN_FLAGS = [
    ["--two-style", two, *you, *ell, *ten]
    for two in ("er", "liang", "reading")
    for you in ([], ["--you"], ["--no-you"])
    for ell in ([], ["--elliptic"])
    for ten in ([], ["--leading-ten-one"])
]
_MIX = (
    "序\r\n"
    + "，".join(surface for surface, _, _ in MALFORMED)
    + "。他說\"一百五\"，又曰'三千四'\\五萬六\\\\。\r\n"
    + "百五、一萬五\r\n\"\"\\一百零五\"\r\n二兩、三兩。\r\n"
)

# Graphs outside the morpheme table: the ligatures and 〇, which join a span
# unconditionally, and the financial forms, which join one only next to
# another span graph; then liǎng on ten (兩十, 一百兩, 一百零兩十) and in a
# unit slot (十兩, 一萬零兩, 兩零五).
_GRAPHS = (
    "廿五年，二〇二六年，壹佰伍拾元。卅有一日，卌人。\n"
    "伍拾萬元，人民幣貳萬叁仟元，三拾元，三拾有五，十有拾五。\n"
    "他拾起三個，陸有五人，參加了二十人，拾有五。\n"
    "兩十、一百兩、一百零兩十，十兩、一萬零兩、兩零五，皆非數。\n"
)

# The argvs of the CLI's dispatch test (tests/test_cli.py): main must answer
# each as the top parser's parse_args and the handler it picks would. "-" is
# the path of stdin.
USAGE_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["sc"],
    ["scan", "-h"], ["scan", "--he"], ["scan", "--js", "-"],
    ["scan", "-", "--json", "x"], ["scan", "--json", "--csv", "-"],
    ["scan", "--", "-"], ["scan", "--bogus", "-"],
    ["gen", "-5"], ["gen", "5", "extra"], ["gen", "5", "--era", "nope"],
    ["gen", "x"], ["gen"], ["parse", "一百", "--era", "dunhuang", "--lenient"],
    ["selftest", "--max", "-1"], ["selftest", "--seed", "1"],
    ["--", "scan"], ["gen", "--", "-5"], ["-x", "scan"], ["gen", "1", "-h", "--bad"],
]


def _edge_texts() -> list[str]:
    texts = list(_BARE)
    for numeral in _NUMERALS:
        for space in _SPACES:
            for odd in _ODD:
                for at in range(len(numeral) + 1):
                    spaced = numeral[:at] + space + numeral[at:]
                    texts += [spaced[:k] + odd + spaced[k:]
                              for k in range(len(spaced) + 1)]
    return texts


def _pinyin_texts() -> list[str]:
    texts = []
    for text in _PINYIN:
        bare = "".join(
            ch for ch in unicodedata.normalize("NFD", text)
            if not unicodedata.combining(ch)
        )
        texts += [text, text.upper(), unicodedata.normalize("NFD", text), bare]
    return texts


def _documents() -> list[str]:
    docs = [build_corpus(seed=seed)[0] for seed in (7, 11)]
    docs += [text for seed in (3, 4) for text, _ in scan_inputs(seed)]
    docs += [_MIX, _GRAPHS]
    return docs


def runs() -> list[tuple[list[str], str | None]]:
    """Every (argv, stdin text or None) the digest covers, in order."""
    out: list[tuple[list[str], str | None]] = []
    for doc in _documents():
        for mode in ([], ["--json"], ["--csv"]):
            out.append((["scan", *mode], doc))
    for text in _edge_texts() + _pinyin_texts() + list(_IDEOGRAPH_LEADS):
        out.append((["classify", "--json", text], None))
        out.append((["parse", "--json", "--lenient", text], None))
    for text in _pinyin_texts():
        out.append((["parse", "--json", "--lenient", "--toneless", text], None))
    for era in CHRONOLOGY:
        for flags in _GEN_FLAGS:
            for n in _GEN_VALUES:
                out.append(
                    (["gen", "--json", "--era", era.value, *flags, str(n)], None)
                )
    for doc in _documents():
        out.append((["scan", "--json"], doc))
    out += [(argv, _MIX) for argv in USAGE_ARGVS]
    return out


def _run(
    argv: list[str], stdin: str | None
) -> tuple[int | tuple[str, object], str, str]:
    """main(argv)'s exit code, or ("exit", code) when it raised SystemExit,
    and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: int | tuple[str, object] = hannum.cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    todo = runs()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for args, stdin in todo:
            code, out, err = _run(args, stdin)
            digest.update(repr((args, code, out, err)).encode("utf-8"))
    print(f"{digest.hexdigest()} {len(todo)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
