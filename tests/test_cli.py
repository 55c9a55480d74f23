"""The command-line interface, driven in process through main()."""

import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from hannum import cli, selftest
from hannum.cli import _parsers, _run, main
from hannum.selftest import IntegerFixture, PhraseFixture, run_selftest

# The dispatch test's argvs live in scripts/output_digest.py, whose digest
# covers them too.
_spec = importlib.util.spec_from_file_location(
    "output_digest",
    Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py",
)
_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digest)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: bytes):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stream)


class TestGen:
    def test_default_era(self, capsys):
        code, out, _ = run(capsys, "gen", "105")
        assert code == 0
        assert out.strip() == "一百零五"

    def test_named_era(self, capsys):
        code, out, _ = run(capsys, "gen", "150", "--era", "suanshushu")
        assert code == 0
        assert out.strip() == "百五十"

    def test_pinyin_script(self, capsys):
        code, out, _ = run(capsys, "gen", "105", "--script", "pinyin")
        assert code == 0
        assert out.strip() == "yī bǎi líng wǔ"

    def test_simplified_script(self, capsys):
        code, out, _ = run(capsys, "gen", "25000", "--script", "simplified",
                           "--two-style", "liang")
        assert code == 0
        assert out.strip() == "两万五千"

    def test_elliptic(self, capsys):
        code, out, _ = run(capsys, "gen", "150", "--elliptic", "--script", "pinyin")
        assert code == 0
        assert out.strip() == "yī bǎi wǔ"

    def test_you_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "15", "--era", "shang", "--you")
        assert code == 0
        assert out.strip() == "十有五"

    def test_no_you_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "15", "--era", "zhou", "--no-you")
        assert code == 0
        assert out.strip() == "十五"

    def test_underscores_and_commas_in_value(self, capsys):
        code, out, _ = run(capsys, "gen", "1,305,000,080")
        assert code == 0
        assert out.strip() == "十三億零五百萬零八十"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "gen", "105", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 105
        assert payload["era"] == "contemporary"
        assert payload["surface"] == "一百零五"
        assert payload["tokens"] == ["[1]", "[10^2]", "líng", "[5]"]
        assert payload["flags"]["script"] == "traditional"

    def test_style_error_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "0", "--era", "shang")
        assert code == 2
        assert "zero" in err.lower() or "standalone" in err

    def test_elliptic_unavailable_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "105", "--elliptic")
        assert code == 2
        assert "error:" in err

    def test_bad_era_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "5", "--era", "tang"])
        assert info.value.code == 2


class TestParse:
    def test_value_output(self, capsys):
        code, out, _ = run(capsys, "parse", "一百零五")
        assert code == 0
        assert out.splitlines()[0] == "105"

    def test_features_line(self, capsys):
        code, out, _ = run(capsys, "parse", "一百零五")
        assert code == 0
        assert any(line.startswith("features:") and "uses_ling" in line
                   for line in out.splitlines())

    def test_era_option(self, capsys):
        code, out, _ = run(capsys, "parse", "百五十", "--era", "sss")
        assert code == 0
        assert out.splitlines()[0] == "150"

    def test_rejection_exit_1(self, capsys):
        code, _, err = run(capsys, "parse", "十有五", "--era", "contemporary")
        assert code == 1
        assert "error:" in err
        assert "OutOfEraMorpheme" in err

    def test_lenient_flag(self, capsys):
        code, out, _ = run(capsys, "parse", "十三億五百萬零八十", "--lenient")
        assert code == 0
        assert out.splitlines()[0] == "1305000080"
        assert any(line.startswith("note:") for line in out.splitlines())

    def test_lenient_help_says_what_the_grammar_does(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["parse", "-h"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for rule in ("admits every morpheme", "reads no [1] rule",
                     "takes rank gaps without ling",
                     "reads a trailing digit after a pivot elliptically",
                     "not the union of the era grammars"):
            assert rule in text
        assert "see the README's API tour, the paragraph on the lenient grammar" in text
        # That paragraph names the forms where the grammar parts from the
        # union of the era grammars.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8"
        )
        tour = readme.split("\n## API tour\n")[1].split("\n## ")[0]
        (paragraph,) = [p for p in tour.split("\n\n") if "The lenient grammar" in p]
        assert "千單十" in paragraph and "一萬一百一" in paragraph

    def test_toneless(self, capsys):
        code, out, _ = run(capsys, "parse", "yi bai ling wu", "--toneless")
        assert code == 0
        assert out.splitlines()[0] == "105"

    def test_stdin(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "一千零一\n".encode("utf-8"))
        code, out, _ = run(capsys, "parse")
        assert code == 0
        assert out.splitlines()[0] == "1001"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "parse", "十有五", "--era", "zhou", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 15
        assert payload["era_checked"] == "zhou-bronze"
        assert payload["features"]["uses_you"] is True

    def test_pipe_round_trip(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "gen", "98765")
        assert code == 0
        feed_stdin(monkeypatch, out.encode("utf-8"))
        code, out, _ = run(capsys, "parse")
        assert code == 0
        assert out.splitlines()[0] == "98765"

    def test_malformed_utf8_reports_byte(self, capsys, monkeypatch):
        stream = io.TextIOWrapper(io.BytesIO(b"abc\xff"), errors="ignore")
        monkeypatch.setattr("sys.stdin", stream)
        assert main(["parse"]) == 3
        err = capsys.readouterr().err
        assert "byte 3" in err

    @pytest.mark.parametrize("name", ["contemporary", "modern", "song"])
    @pytest.mark.parametrize("lenient_first", [True, False])
    def test_era_and_lenient_exclude_each_other(self, capsys, name, lenient_first):
        # The default era named explicitly is an --era given, as any other.
        era = ["--era", name]
        argv = ["--lenient", *era] if lenient_first else [*era, "--lenient"]
        with pytest.raises(SystemExit) as exit_:
            main(["parse", "一百五", *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        other = ("--era", "--lenient") if lenient_first else ("--lenient", "--era")
        assert f"argument {other[0]}: not allowed with argument {other[1]}" in err

    def test_no_era_reads_contemporary(self, capsys):
        code, out, _ = run(capsys, "parse", "一百零五", "--json")
        assert code == 0
        assert json.loads(out)["era_checked"] == "contemporary"


class TestClassify:
    def test_consistent_line(self, capsys):
        code, out, _ = run(capsys, "classify", "十有五")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("consistent:")
        assert "shang-oracle" in lines[0]
        assert "zhou-bronze" in lines[0]
        assert "warring-states" in lines[0]
        assert "contemporary" not in lines[0]

    def test_range_lines(self, capsys):
        _, out, _ = run(capsys, "classify", "十有五")
        assert any(line.startswith("earliest:") for line in out.splitlines())
        assert any(line.startswith("latest:") for line in out.splitlines())

    def test_rejects_lines(self, capsys):
        _, out, _ = run(capsys, "classify", "十有五")
        reject_lines = [l for l in out.splitlines() if l.startswith("rejects:")]
        assert len(reject_lines) == 5
        assert any("contemporary" in l for l in reject_lines)

    def test_none_consistent(self, capsys):
        code, out, _ = run(capsys, "classify", "兩十")
        assert code == 0
        assert "(none)" in out.splitlines()[0]

    def test_unknown_character_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "三犬")
        assert code == 1
        assert "UnknownCharacter" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "一百零五", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent_eras"] == ["song-qin", "contemporary"]
        assert len(payload["verdicts"]) == 8


class TestScan:
    def test_file_input(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("有十有五人，另有三十人。", encoding="utf-8")
        code, out, _ = run(capsys, "scan", str(corpus))
        assert code == 0
        assert "summary:" in out
        assert "expressions" in out

    def test_stdin_input(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "共一百零五人".encode("utf-8"))
        code, out, _ = run(capsys, "scan")
        assert code == 0
        assert "105" in out

    def test_json_lines(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("一百零五隻貓，三千隻狗", encoding="utf-8")
        code, out, _ = run(capsys, "scan", str(corpus), "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        records = [l for l in lines if "summary" not in l]
        summaries = [l for l in lines if "summary" in l]
        assert len(records) == 2
        assert len(summaries) == 1
        assert summaries[0]["summary"]["expressions"] == 2

    def test_csv_output(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("十有五", encoding="utf-8")
        code, out, _ = run(capsys, "scan", str(corpus), "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,count"
        assert "with_you,1" in lines

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "scan", "/nonexistent/corpus.txt")
        assert code == 3
        assert "error:" in err

    def test_malformed_utf8_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("十五".encode("utf-8") + b"\xff\xfe")
        code, _, err = run(capsys, "scan", str(bad))
        assert code == 3
        assert "byte 6" in err

    @pytest.mark.parametrize("mode", [(), ("--json",), ("--csv",)])
    def test_several_paths_write_one_scan_each(self, capsys, tmp_path, mode):
        docs = ["有十有五人，另有三十人。", "兩十，十十五，一百零五", "十有五人又十有五"]
        paths = []
        for i, doc in enumerate(docs):
            paths.append(str(tmp_path / f"doc{i}.txt"))
            (tmp_path / f"doc{i}.txt").write_text(doc, encoding="utf-8")
        alone = []
        for path in paths:
            code, out, _ = run(capsys, "scan", *mode, path)
            assert code == 0
            alone.append(out)
        # Twice over, so that the second pass is served from kept readings.
        code, out, _ = run(capsys, "scan", *mode, *paths, *paths)
        assert code == 0
        assert out == "".join(alone) * 2

    def test_unreadable_path_ends_the_run(self, capsys, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("一百零五", encoding="utf-8")
        code, alone, _ = run(capsys, "scan", "--json", str(doc))
        assert code == 0
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "scan", "--json", str(doc), missing, str(doc))
        assert code == 3
        assert out == alone
        assert "missing.txt" in err


class TestSelftest:
    def test_quick_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max", "200")
        assert code == 0
        assert out.startswith("selftest: pass")
        assert "0 failures" in out

    def test_negative_max_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--max", "-1"])
        assert info.value.code == 2
        assert "--max" in capsys.readouterr().err

    def test_zero_max_checks_table_only(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max", "0")
        assert code == 0
        # 30 integer fixtures of four checks each (render, surface, tokens,
        # parse-back) and 10 phrase fixtures of one.
        assert out.startswith("selftest: pass (130 checks")

    def test_run_selftest_rejects_negative_max(self):
        with pytest.raises(ValueError):
            run_selftest(max_value=-1)

    @pytest.mark.parametrize("max_value", ["5", 2.5, True, False, None, -1.0])
    def test_run_selftest_max_must_be_an_int(self, max_value):
        with pytest.raises(TypeError) as info:
            run_selftest(max_value)
        assert str(info.value) == (
            f"max_value must be an int, not {type(max_value).__name__}"
        )

    @pytest.mark.parametrize(
        "table, row",
        [
            ("INTEGER_FIXTURES", IntegerFixture(105, "contemporary", "一百五",
                                                "[1] [10^2] [5]")),
            ("PHRASE_FIXTURES", PhraseFixture("currency", (3, 0, 5), "三元五分")),
        ],
    )
    def test_corrupted_row_fails(self, capsys, monkeypatch, table, row):
        monkeypatch.setattr(selftest, table, (*getattr(selftest, table), row))
        report = run_selftest(max_value=0)
        assert not report.passed
        code, out, _ = run(capsys, "selftest", "--max", "0")
        assert code == 1
        assert out.startswith("selftest: FAIL")
        assert "  counterexample: " in out

    def test_every_failure_is_reported(self, monkeypatch):
        # A render and a phrase that raise, then parse-backs that reject or
        # read another value, in the table and in the sweep, which stops
        # past 20 failures.
        monkeypatch.setattr(selftest, "INTEGER_FIXTURES", (
            IntegerFixture(-1, "contemporary", "", ""),
            IntegerFixture(5, "contemporary", "五", "[5]"),
            IntegerFixture(5, "contemporary", "五", "[5]"),
        ))
        monkeypatch.setattr(selftest, "PHRASE_FIXTURES", (PhraseFixture("?", (), ""),))
        calls, real_parse = [], selftest.parse

        def parse(tokens, era):
            calls.append(tokens)
            if len(calls) in (1, 3):
                return real_parse((), era)
            return SimpleNamespace(value=-1)

        monkeypatch.setattr(selftest, "parse", parse)
        report = run_selftest(max_value=5)
        assert [line.split(":")[0] for line in report.failures[:5]] == [
            "render -1 (contemporary)",
            "parse-back 5 (contemporary)",
            "parse-back 5 (contemporary)",
            "?()",
            "round-trip 1 (shang-oracle)",
        ]
        assert "rejected: " in report.failures[1]
        assert report.failures[2].endswith("read -1 instead")
        assert "NumeralParseError" in report.failures[4]
        assert report.failures[5] == "round-trip 2 (shang-oracle): parsed back as -1"
        assert len(report.failures) == 21
        # 1 + 4 + 4 table checks, 1 phrase and the 17 sweep renders run.
        assert report.as_dict() == {
            "passed": False,
            "checks_run": 27,
            "failures": list(report.failures),
            "elapsed_seconds": report.elapsed_seconds,
        }


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv", [("scan", "--lenient"), ("selftest", "--seed", "1")]
    )
    def test_removed_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2

    def test_negative_value_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "-5")
        assert (code, out, err) == (
            2, "", "error: expected a non-negative integer, got -5\n"
        )


def _reference(argv):
    """What main did before it sent a named subcommand to its own parser:
    the top parser's parse_args, then the handler through main's own
    failure mapping. _run sees no subcommand map, so every argv takes the
    top parser."""
    top = _parsers()[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parsers", lambda: (top, {}))
        return _run(argv)


def _outcome(call, argv, capsys, monkeypatch):
    feed_stdin(monkeypatch, "共一百零五人，十有五。".encode("utf-8"))
    try:
        result = ("return", call(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestDispatch:
    """main sends an argv that starts with a subcommand's name straight to
    that subcommand's parser. Every argv must give the exit code or
    SystemExit code, stdout and stderr of the top parser's parse_args and
    the handler it picks."""

    @pytest.mark.parametrize(
        "argv", _digest.USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "empty"
    )
    def test_matches_top_parser(self, capsys, monkeypatch, argv):
        expected = _outcome(_reference, argv, capsys, monkeypatch)
        assert _outcome(main, argv, capsys, monkeypatch) == expected

    def test_unhashable_first_item_is_a_type_error(self):
        for call in (_reference, main):
            with pytest.raises(TypeError):
                call([["scan"]])

    def test_named_command_skips_top_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top parser parsed a named subcommand")

        monkeypatch.setattr(_parsers()[0], "parse_args", refuse)
        assert run(capsys, "gen", "5") == (0, "五\n", "")

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["hannum", "gen", "5"])
        assert main() == 0
        assert capsys.readouterr().out == "五\n"


class TestRepeatedCalls:
    """main() builds its parser once per process; no option may carry over
    from one call to the next."""

    def test_parser_built_once(self):
        assert _parsers() is _parsers()

    def test_scan_csv_then_json(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("十有五", encoding="utf-8")
        code, out, _ = run(capsys, "scan", str(corpus), "--csv")
        assert code == 0
        assert out.splitlines()[0] == "key,count"
        code, out, _ = run(capsys, "scan", str(corpus), "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["text"] == "十有五"
        assert lines[-1]["summary"]["with_you"] == 1

    def test_lenient_then_default_era(self, capsys):
        code, out, _ = run(capsys, "parse", "--lenient", "一百五", "--json")
        assert code == 0
        assert json.loads(out)["era_checked"] == "lenient"
        code, out, _ = run(capsys, "parse", "一百五", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["era_checked"] == "contemporary"
        assert payload["diagnostics"] == []

    def test_you_then_default(self, capsys):
        code, out, _ = run(
            capsys, "gen", "5", "--you", "--era", "zhou-bronze", "--json"
        )
        assert code == 0
        assert json.loads(out)["flags"]["use_you"] is True
        code, out, _ = run(capsys, "gen", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["era"] == "contemporary"
        assert payload["flags"]["use_you"] is None

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "5", "--era", "no-such-era"])
        assert info.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "gen", "5")
        assert code == 0
        assert out == "五\n"
