"""Command-line front end: gen, parse, classify, scan, selftest.

Exit codes: 0 success, 1 parse or era rejection (and self-test failure),
2 invalid arguments or style/range errors, 3 I/O or encoding errors, which
include any write to stdout that fails: a reader that closes the pipe (which
ends the command quietly), a full device, or output that stdout cannot
encode. The handlers only compute and write; _run, which main calls, is the
one place that turns a failure into its exit code and error: line. It
parses the argv inside that mapping too, so help that cannot be written
exits 3 as well, while help and usage errors that are written exit through
argparse's SystemExit, 0 and 2.
JSON output is a single object for gen/parse/classify and one object per
line for scan (records first, then a final {"summary": ...} object).

scan --json builds each record line from JSON fragments and writes it with
one write to stdout: the era list and the Features object come from tables
shared by every record, an error message and each diagnostic are escaped
by the C string encoder that json.dumps itself uses, and the part after
"column" is built once per distinct span text for the life of the process:
_TAILS keeps it beside scan's readings, as far as scan._keeps allows, so a
scan of several paths, or any process that runs scan --json more than once,
writes each repeated span's tail once. The summary line is written from
fragments too: its counts in scan._COUNTS order, then the era_sets object
with its keys sorted. Every line equals json.dumps of the record's
as_dict(), or of {"summary": summary.as_dict()}, with ensure_ascii=False.

_run parses each argv once: an argv that starts with a subcommand's name
goes straight to that subcommand's parser, which is where the top parser
would send it after a pass of its own, and every other argv to the top
parser. Output, exit codes and usage messages are the top parser's, but
for a failed write of help, which exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from enum import Enum
from json.encoder import encode_basestring as _encode_string
from operator import attrgetter

from .chronolect import classify
from .core import Era, RenderOptions, Script, TwoStyle, token_notation
from .generate import RenderError, render_integer
from .parse import Features, NumeralParseError, parse_text
from .scan import _COUNTS, ScanRecord, _keeps, scan_text, summary_csv_rows

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


class _InputError(Exception):
    """Input that cannot be read or is not UTF-8; main exits with 3."""


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at path, or of stdin when path is '-'."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise _InputError(str(exc)) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = "on stdin" if path == "-" else f"in {path}"
        raise _InputError(f"malformed UTF-8 {where} at byte {exc.start}") from None


def _text_or_stdin(text: str | None) -> str:
    if text is None or text == "-":
        return _read_text("-").strip()
    return text


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help and usage written to stdout are
    flushed there and a write that fails raises, where argparse drops its
    OSError; _run maps it to 3 like any other failed write to stdout."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is not None and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top argument parser and its subcommands' parsers by name, built
    once per process.

    The map is argparse's own: the choices of the action that
    add_subparsers returns, which the top parser reads a subcommand's name
    from. _run hands an argv that starts with one of its keys straight to
    that subcommand's parser, which is what the top parser does with it
    after a first pass of its own, and any other argv to the top parser.
    Parsing leaves the parsers unchanged and fills a fresh Namespace, so no
    option carries over from one main() call to the next. Each
    subcommand's parser sets args.handler, the function _run runs.
    """
    top = _Parser(
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
    gen.set_defaults(handler=_cmd_gen)
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
    par.set_defaults(handler=_cmd_parse)
    par.add_argument(
        "text",
        nargs="?",
        default=None,
        help="numeral text (Han or pinyin); omit or '-' for stdin",
    )
    mode = par.add_mutually_exclusive_group()
    # No default: argparse counts an exclusive option as given only when its
    # value is not the default object, and --era contemporary must conflict.
    mode.add_argument(
        "--era",
        type=_era_arg,
        help="era grammar to check against (default contemporary)",
    )
    mode.add_argument(
        "--lenient",
        action="store_true",
        help=(
            "parse under the lenient grammar, which admits every morpheme, "
            "reads no [1] rule, takes rank gaps without ling and reads a "
            "trailing digit after a pivot elliptically; it is not the union "
            "of the era grammars (see the README's API tour, the paragraph "
            "on the lenient grammar)"
        ),
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
    cls.set_defaults(handler=_cmd_classify)
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
    scn.set_defaults(handler=_cmd_scan)
    scn.add_argument(
        "paths",
        nargs="*",
        default=["-"],
        metavar="path",
        help="input files, scanned in turn as if by one scan each "
        "(default '-' for stdin)",
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
    st.set_defaults(handler=_cmd_selftest)
    st.add_argument(
        "--max",
        type=_count_arg,
        default=1000,
        dest="max_value",
        help="round-trip every era exhaustively up to this value "
        "(0 checks the example table only; default 1000)",
    )

    return top, sub.choices


def _cmd_gen(args: argparse.Namespace) -> int:
    opts = RenderOptions(
        script=Script(args.script),
        two_style=TwoStyle(args.two_style),
        use_you=args.you,
        elliptic=args.elliptic,
        leading_ten_one=args.leading_ten_one,
    )
    expr = render_integer(args.value, args.era, opts)
    if args.as_json:
        payload = {
            "value": args.value,
            "era": args.era.value,
            "tokens": [token_notation(t) for t in expr.tokens],
            "surface": expr.text(opts.script),
            # Every RenderOptions field in order, an enum by its value.
            "flags": {
                f.name: v.value if isinstance(v := getattr(opts, f.name), Enum) else v
                for f in fields(RenderOptions)
            },
        }
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(expr.text(opts.script))
    return _EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    text = _text_or_stdin(args.text)
    era = None if args.lenient else args.era or Era.CONTEMPORARY
    outcome = parse_text(text, era, toneless=args.toneless)
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
    report = classify(text)
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


# The JSON that records of scan_text share, filled on first sight: the era
# list of each consistent-era tuple, which scan_text takes from a table of
# the 2**7 masks of seven lanes, and the JSON object of each Features,
# whose seven flags allow 2**7. Each holds at most 128 entries.
_ERAS_JSON: dict[tuple[Era, ...], str] = {}
_FEATURES_JSON: dict[Features, str] = {}
# Each span text's _reading_json, kept for every scan --json run in the
# process as far as scan._keeps allows.
_TAILS: dict[str, str] = {}
# The {"summary": ...} line of scan --json: a %d slot for each count, in
# scan._COUNTS order as _counts reads them, and a %s slot for the members
# of the era_sets object.
_SUMMARY_LINE = (
    '{"summary": {'
    + "".join(f'"{key}": %d, ' for key in _COUNTS)
    + '"era_sets": {%s}}}\n'
)
_counts = attrgetter(*_COUNTS)


def _reading_json(rec: ScanRecord) -> str:
    """json.dumps(rec.reading_dict(), ensure_ascii=False)[1:] for a record
    of scan_text, written from fragments.

    The text is written as it is, since a span holds only numeral graphs,
    none of which JSON escapes. An error message and each diagnostic go
    through json.encoder.encode_basestring, the function json.dumps itself
    applies to every string when ensure_ascii is False.
    """
    eras = rec.consistent_eras
    eras_json = _ERAS_JSON.get(eras)
    if eras_json is None:
        eras_json = _ERAS_JSON[eras] = json.dumps([e.value for e in eras])
    outcome = rec.outcome
    if outcome is None:
        err = rec.error
        assert err is not None
        return (
            f'"text": "{rec.text}", "consistent_eras": {eras_json}, '
            f'"status": "error", "error": {{"kind": "{err.kind._value_}", '
            f'"position": {err.position}, '
            f'"message": {_encode_string(err.message)}}}}}'
        )
    features = outcome.features
    features_json = _FEATURES_JSON.get(features)
    if features_json is None:
        features_json = json.dumps(features.as_dict())
        _FEATURES_JSON[features] = features_json
    notes = outcome.diagnostics
    notes_json = f"[{', '.join(map(_encode_string, notes))}]" if notes else "[]"
    return (
        f'"text": "{rec.text}", "consistent_eras": {eras_json}, '
        f'"status": "ok", "value": {outcome.value}, '
        f'"features": {features_json}, "diagnostics": {notes_json}}}'
    )


def _cmd_scan(args: argparse.Namespace) -> int:
    # Each path is read and written in turn, as one scan of that path alone
    # would be; a path that cannot be read ends the run after the output of
    # the paths before it. One process scanning many documents is what
    # scan's readings and _TAILS are kept for.
    for path in args.paths:
        _write_scan(_read_text(path), args)
    return _EXIT_OK


def _write_scan(text: str, args: argparse.Namespace) -> None:
    records, summary = scan_text(text)
    if args.csv:
        print("key,count")
        for key, count in summary_csv_rows(summary):
            print(f"{key},{count}")
        return
    if args.as_json:
        # A record's JSON after "column" depends only on its text: write it
        # once per distinct text in the process (as many as _TAILS keeps;
        # any other text at each occurrence), from the fragments of
        # _reading_json, and write each record as its position fields plus
        # that tail. With the default separators this equals
        # json.dumps(rec.as_dict()). Each line is one write, as print's
        # first write would be, so a closed pipe or an encoding that stdout
        # lacks is met at the same record; no line is kept.
        write = sys.stdout.write
        for rec in records:
            tail = _TAILS.get(rec.text)
            if tail is None:
                tail = _reading_json(rec)
                if _keeps(_TAILS, rec.text):
                    _TAILS[rec.text] = tail
            write(
                f'{{"byte_offset": {rec.byte_offset}, "line": {rec.line}, '
                f'"column": {rec.column}, {tail}\n'
            )
        # An era-set key is era names joined by "+", or "none", none of
        # which JSON escapes. With the default separators this line equals
        # json.dumps({"summary": summary.as_dict()}, ensure_ascii=False).
        era_sets = ", ".join(
            [f'"{key}": {n}' for key, n in sorted(summary.era_sets.items())]
        )
        write(_SUMMARY_LINE % (*_counts(summary), era_sets))
        return
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


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # loaded by this command alone

    report = run_selftest(max_value=args.max_value)
    status = "pass" if report.passed else "FAIL"
    print(
        f"selftest: {status} ({report.checks_run} checks, "
        f"{len(report.failures)} failures, {report.elapsed_seconds:.2f}s)"
    )
    for line in report.failures:
        print(f"  counterexample: {line}")
    return _EXIT_OK if report.passed else _EXIT_REJECTED


def _run(argv: list[str]) -> int:
    """Parse argv, run the handler it picks and return its exit code, or
    the code of its failure.

    This is the one place where a failure becomes an exit code: a parse or
    era rejection is 1, a style or range refusal 2, and input that cannot
    be read or output that cannot be written 3, help included, each with
    one error: line on stderr. A reader that closes the pipe ends the
    command quietly.
    """
    try:
        top, commands = _parsers()
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = top.parse_args(argv)
        else:
            # What the top parser's parse_args does with this argv, without
            # its own pass over every string first: the subcommand's parser
            # reads the rest, and the top parser reports what is left over.
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                top.error(f"unrecognized arguments: {' '.join(extra)}")
        code = args.handler(args)
        sys.stdout.flush()
    except (NumeralParseError, RenderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REJECTED if isinstance(exc, NumeralParseError) else _EXIT_USAGE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (OSError, UnicodeEncodeError) as exc:
        # Input errors are _InputError by now, so this is a write to stdout
        # that failed: a closed pipe, a full device or any other OSError, or
        # an encoding that stdout lacks (stderr escapes what it cannot
        # encode). After an OSError, stdout is pointed at devnull so that the
        # final flush at exit does not raise again; after an encoding error,
        # what stdout holds is still written.
        if isinstance(exc, OSError):
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, OSError, ValueError):
                pass
            else:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_IO
    return code


def main(argv: list[str] | None = None) -> int:
    return _run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
