"""The command-line interface, driven in process through main()."""

import io
import json

import pytest

from hannum import selftest
from hannum.cli import _parser, main
from hannum.selftest import IntegerFixture, PhraseFixture, run_selftest


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
        with pytest.raises(SystemExit) as info:
            main(["parse"])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert "byte 3" in err


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
        assert out.startswith("selftest: pass (100 checks")

    def test_run_selftest_rejects_negative_max(self):
        with pytest.raises(ValueError):
            run_selftest(max_value=-1)

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
        code, _, err = run(capsys, "gen", "-5")
        assert code == 2 or "error" in err


class TestRepeatedCalls:
    """main() builds its parser once per process; no option may carry over
    from one call to the next."""

    def test_parser_built_once(self):
        assert _parser() is _parser()

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
