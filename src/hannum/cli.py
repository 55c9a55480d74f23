"""Command-line front end: gen, parse, classify, scan, selftest.

Exit codes: 0 success, 1 parse or era rejection (and self-test failure),
2 invalid arguments or style/range errors, 3 I/O or encoding errors, which
include output that stdout cannot encode and a reader that closes the pipe.
JSON output is a single object for gen/parse/classify and one object per
line for scan (records first, then a final {"summary": ...} object).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .chronolect import classify
from .core import Era, RenderOptions, Script, TwoStyle, token_notation
from .generate import RenderError, render_integer
from .parse import NumeralParseError, parse_text
from .scan import _MEMO_TEXTS, scan_text, summary_csv_rows
from .selftest import run_selftest

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_REJECTED = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


def _era_arg(text: str) -> Era:
    try:
        return Era.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str) -> int:
    try:
        return int(text.replace(",", "").replace("_", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}"
        ) from None


def _count_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more: {text!r}")
    return value


def _read_stdin_text() -> str:
    data = sys.stdin.buffer.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail_io(f"malformed UTF-8 on stdin at byte {exc.start}")
        raise AssertionError  # unreachable


def _fail_io(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(_EXIT_IO)


def _text_or_stdin(text: str | None) -> str:
    if text is None or text == "-":
        return _read_stdin_text().strip()
    return text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args leaves the parser unchanged and fills a fresh Namespace, so
    no option carries over from one main() call to the next.
    """
    top = argparse.ArgumentParser(
        prog="hannum",
        description=(
            "Convert integers to Chinese numeral expressions and back, "
            "under one of eight historical era grammars."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="render an integer as a numeral expression"
    )
    gen.add_argument("value", type=_int_arg, help="non-negative integer")
    gen.add_argument(
        "--era",
        type=_era_arg,
        default=Era.CONTEMPORARY,
        help="era grammar (default contemporary)",
    )
    gen.add_argument(
        "--script",
        choices=[s.value for s in Script],
        default=Script.TRADITIONAL.value,
        help="surface script (default traditional)",
    )
    gen.add_argument(
        "--two-style",
        choices=[s.value for s in TwoStyle],
        default=TwoStyle.ALWAYS_ER.value,
        help="how the digit 2 surfaces (default er)",
    )
    gen.add_argument(
        "--you",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the junction word on or off (eras that allow it)",
    )
    gen.add_argument(
        "--elliptic",
        action="store_true",
        help="drop the final pivot (contemporary colloquial form)",
    )
    gen.add_argument(
        "--leading-ten-one",
        action="store_true",
        help="write the optional [1] before a leading ten compound",
    )
    gen.add_argument("--json", action="store_true", dest="as_json")

    par = sub.add_parser(
        "parse", help="read a numeral expression back to an integer"
    )
    par.add_argument(
        "text",
        nargs="?",
        default=None,
        help="numeral text (Han or pinyin); omit or '-' for stdin",
    )
    mode = par.add_mutually_exclusive_group()
    mode.add_argument(
        "--era",
        type=_era_arg,
        default=Era.CONTEMPORARY,
        help="era grammar to check against (default contemporary)",
    )
    mode.add_argument(
        "--lenient",
        action="store_true",
        help="accept any era's constructions plus documented relaxations",
    )
    par.add_argument(
        "--toneless",
        action="store_true",
        help="accept pinyin without tone marks",
    )
    par.add_argument("--json", action="store_true", dest="as_json")

    cls = sub.add_parser(
        "classify", help="report which era grammars accept an expression"
    )
    cls.add_argument(
        "text",
        nargs="?",
        default=None,
        help="numeral text; omit or '-' for stdin",
    )
    cls.add_argument("--json", action="store_true", dest="as_json")

    scn = sub.add_parser(
        "scan", help="find and tally numeral spans in a text corpus"
    )
    scn.add_argument(
        "path",
        nargs="?",
        default="-",
        help="input file (default '-' for stdin)",
    )
    out = scn.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", dest="as_json")
    out.add_argument(
        "--csv",
        action="store_true",
        help="print only the summary, as key,count CSV rows",
    )

    st = sub.add_parser(
        "selftest", help="run the built-in example table and round-trip sweep"
    )
    st.add_argument(
        "--max",
        type=_count_arg,
        default=1000,
        dest="max_value",
        help="round-trip every era exhaustively up to this value "
        "(0 checks the example table only; default 1000)",
    )

    return top


def _cmd_gen(args: argparse.Namespace) -> int:
    opts = RenderOptions(
        script=Script(args.script),
        two_style=TwoStyle(args.two_style),
        use_you=args.you,
        elliptic=args.elliptic,
        leading_ten_one=args.leading_ten_one,
    )
    try:
        expr = render_integer(args.value, args.era, opts)
    except RenderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args.as_json:
        payload = {
            "value": args.value,
            "era": args.era.value,
            "tokens": [token_notation(t) for t in expr.tokens],
            "surface": expr.text(opts.script),
            "flags": {
                "script": opts.script.value,
                "two_style": opts.two_style.value,
                "use_you": opts.use_you,
                "elliptic": opts.elliptic,
                "leading_ten_one": opts.leading_ten_one,
            },
        }
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(expr.text(opts.script))
    return _EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    text = _text_or_stdin(args.text)
    era = None if args.lenient else args.era
    try:
        outcome = parse_text(text, era, toneless=args.toneless)
    except NumeralParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REJECTED
    if args.as_json:
        print(json.dumps(outcome.as_dict(), ensure_ascii=False))
        return _EXIT_OK
    print(outcome.value)
    flags = [k for k, v in outcome.features.as_dict().items() if v]
    if flags:
        print("features: " + ", ".join(flags))
    for note in outcome.diagnostics:
        print(f"note: {note}")
    return _EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    text = _text_or_stdin(args.text)
    try:
        report = classify(text)
    except NumeralParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REJECTED
    if args.as_json:
        print(json.dumps(report.as_dict(), ensure_ascii=False))
        return _EXIT_OK
    names = ", ".join(e.value for e in report.consistent) or "(none)"
    print(f"consistent: {names}")
    if report.consistent:
        print(f"earliest: {report.earliest_consistent.value}")
        print(f"latest: {report.latest_consistent.value}")
    flags = [k for k, v in report.features.as_dict().items() if v]
    if flags:
        print("features: " + ", ".join(flags))
    for v in report.verdicts:
        if not v.accepts:
            assert v.error is not None
            print(f"rejects: {v.era.value} ({v.error.kind.value})")
    for note in report.notes:
        print(f"note: {note}")
    return _EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.path == "-":
        text = _read_stdin_text()
    else:
        try:
            with open(args.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_IO
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            print(
                f"error: malformed UTF-8 in {args.path} at byte {exc.start}",
                file=sys.stderr,
            )
            return _EXIT_IO

    records, summary = scan_text(text)
    if args.csv:
        print("key,count")
        for key, count in summary_csv_rows(summary):
            print(f"{key},{count}")
        return _EXIT_OK
    if args.as_json:
        # A record's JSON after "column" depends only on its text: serialize
        # it once per distinct text (as many as scan_text remembers) and
        # write each record as its position fields plus that tail. With the
        # default separators this equals json.dumps(rec.as_dict()).
        tails: dict[str, str] = {}
        for rec in records:
            tail = tails.get(rec.text)
            if tail is None:
                tail = json.dumps(rec.reading_dict(), ensure_ascii=False)[1:]
                if len(tails) < _MEMO_TEXTS:
                    tails[rec.text] = tail
            print(
                f'{{"byte_offset": {rec.byte_offset}, "line": {rec.line}, '
                f'"column": {rec.column}, {tail}'
            )
        print(json.dumps({"summary": summary.as_dict()}, ensure_ascii=False))
        return _EXIT_OK
    for rec in records:
        if rec.ok:
            assert rec.outcome is not None
            tail = str(rec.outcome.value)
        else:
            assert rec.error is not None
            tail = f"ERROR {rec.error.kind.value}"
        print(f"{rec.line}:{rec.column}\t{rec.text}\t{tail}")
    print("summary:")
    for key, count in summary_csv_rows(summary):
        print(f"  {key}: {count}")
    return _EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    report = run_selftest(max_value=args.max_value)
    status = "pass" if report.passed else "FAIL"
    print(
        f"selftest: {status} ({report.checks_run} checks, "
        f"{len(report.failures)} failures, {report.elapsed_seconds:.2f}s)"
    )
    for line in report.failures:
        print(f"  counterexample: {line}")
    return _EXIT_OK if report.passed else _EXIT_REJECTED


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "parse": _cmd_parse,
        "classify": _cmd_classify,
        "scan": _cmd_scan,
        "selftest": _cmd_selftest,
    }
    # Only a write to stdout raises these here (stderr escapes what it cannot
    # encode, and reading has its own errors): output failures are I/O errors.
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull so that the final
        # flush at exit does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return _EXIT_IO
    except UnicodeEncodeError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
