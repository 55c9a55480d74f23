"""Smoke tests for the scripts in scripts/."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import hannum
from hannum import scan_text

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_era_evolution_runs(capsys):
    assert _load("era_evolution").main([]) == 0
    out = capsys.readouterr().out
    assert "=== era-consistency demo ===" in out


def test_synthetic_corpus_scan_matches_manifest():
    text, manifest = _load("synthetic_corpus").build_corpus(seed=7, repeats=2)
    _, summary = scan_text(text)
    planted = manifest["planted"]
    for key in ("expressions", "with_you", "with_ling", "with_liang",
                "elliptic", "errors"):
        assert getattr(summary, key) == planted[key], key


def test_code_lines_counts_main(capsys):
    main = _SCRIPTS.parent / "src" / "hannum" / "__main__.py"
    assert _load("code_lines").main([str(main)]) == 0
    first, total = capsys.readouterr().out.splitlines()
    assert first.split(maxsplit=1) == ["4", str(main)]
    assert total.split() == ["4", "total"]


def test_output_digest_is_repeatable(capsys):
    # Two runs in one process, the second on warm memos, print the same line.
    digest = _load("output_digest")
    assert digest.main([]) == 0
    first = capsys.readouterr().out
    assert digest.main([]) == 0
    assert capsys.readouterr().out == first
    hexdigest, count, unit = first.split()
    assert len(hexdigest) == 64 and int(count) == len(digest.runs()) and unit == "runs"


def _inprocess_ab_own_src(workload, ops, *options):
    # In a fresh interpreter, so hannum_base stays out of this one.
    src = _SCRIPTS.parent / "src"
    done = subprocess.run(
        [sys.executable, str(_SCRIPTS / "inprocess_ab.py"), str(src),
         "--rounds", "3", "--workload", workload, *options],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rounds = "cold rounds" if "--cold" in options else "rounds"
    assert re.fullmatch(
        rf"{workload}: base [\d.]+ us/op, change [\d.]+ us/op, ratio [\d.]+ "
        rf"\(q1 [\d.]+, q3 [\d.]+\) over 3 {rounds} of {ops} ops\n",
        done.stdout,
    )


def test_inprocess_ab_against_its_own_src():
    _inprocess_ab_own_src("scan", 24)


def test_inprocess_ab_cold_against_its_own_src():
    # Every memo emptied before each timed pass: the all-miss path.
    _inprocess_ab_own_src("scan", 24, "--cold")


def test_inprocess_ab_empty_memos(capsys, tmp_path):
    # hannum.parse is the function; the modules come from their full names.
    cli, generate, parse, scan = (
        importlib.import_module(f"hannum.{name}")
        for name in ("cli", "generate", "parse", "scan")
    )
    doc = tmp_path / "doc.txt"
    doc.write_text("十五，兩十", encoding="utf-8")
    assert cli.main(["scan", "--json", str(doc)]) == 0
    hannum.render_integer(105, "contemporary")
    lanes = (*parse._TABLES.values(), parse._ALL_LANES)
    memos = [scan._READINGS, cli._TAILS, generate._group_memo, parse._ALL_LANES.memo]
    assert all(memos) and parse._STORED[0]
    _load("inprocess_ab").empty_memos(hannum)
    assert not any(memos) and not any(t.memo for t in lanes)
    assert parse._STORED[0] == 0


def test_inprocess_ab_pair_against_its_own_src():
    # The acceptance sweep's pair: 1,100 values for each of the eight eras.
    _inprocess_ab_own_src("pair", 8800)


def test_inprocess_ab_render_against_its_own_src():
    # render_integer alone over the pair pool, each value read back.
    _inprocess_ab_own_src("render", 8800)


def test_import_cost_lists_modules_and_loads():
    done = subprocess.run(
        [sys.executable, str(_SCRIPTS / "import_cost.py"), "--runs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:12]}
    assert sorted(rows) == sorted([
        "hannum", "hannum.core", "hannum.parse", "hannum.generate",
        "hannum.chronolect", "hannum.phrase", "hannum.scan", "hannum.selftest",
        "hannum.cli", "total",
    ])
    assert all(float(self_ms) >= float(dc_ms) >= 0 for self_ms, dc_ms in rows.values())
    assert float(rows["hannum.core"][1]) > 0
    # The floor: the self and dataclass ms of the modules import hannum
    # loads, a part of the totals.
    label, floor = lines[12][:20].rstrip(), lines[12][20:].split()
    assert label == "import hannum"
    assert float(floor[0]) >= float(floor[1]) > 0
    assert all(float(ms) < float(total) for ms, total in zip(floor, rows["total"]))
    eager = "hannum hannum.core hannum.generate hannum.parse"
    assert lines[14:] == [
        f"import hannum: {eager}",
        f"roundtrip: {eager}",
        "classify: hannum hannum.chronolect hannum.core hannum.generate hannum.parse",
        "scan: hannum hannum.chronolect hannum.cli hannum.core hannum.generate "
        "hannum.parse hannum.scan",
    ]


class TestBenchPairs:
    """The statistics of scripts/bench_pairs.py on fixed numbers."""

    PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    # Wins 9 of 10 (it loses the sixth pair), median 110.
    CHANGE = [110, 111, 109, 112, 108, 99, 113, 110, 111, 110]

    def test_seeds(self):
        bp = _load("bench_pairs")
        assert bp.parse_seeds("11001-11010") == list(range(11001, 11011))
        assert bp.parse_seeds("7") == [7]

    def test_wins_median_and_quartiles(self):
        bp = _load("bench_pairs")
        assert bp.wins(self.PARENT, self.CHANGE, "higher") == 9
        assert bp.wins(self.PARENT, self.CHANGE, "lower") == 1
        # The exclusive method: q1 at rank 2.75, q3 at rank 8.25 of 10.
        assert bp.quartiles(self.PARENT) == {
            "median": 100, "q1": 98.75, "q3": 101.25, "iqr": 2.5
        }
        assert bp.quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}

    def test_claim_rule(self):
        bp = _load("bench_pairs")
        held = bp.claim(self.PARENT, self.CHANGE, "higher")
        assert (held["wins"], held["pairs"], held["median_gap"], held["parent_iqr"]) == (
            9, 10, 10, 2.5
        )
        assert held["holds"]
        # Eight wins in ten are too few.
        eight = [99, *self.CHANGE[1:]]
        assert not bp.claim(self.PARENT, eight, "higher")["holds"]
        # Nine pairs are too few, even all won.
        assert not bp.claim(self.PARENT[:9], self.CHANGE[:9], "higher")["holds"]
        # Ten wins by less than the parent's IQR do not hold.
        close = [p + 2 for p in self.PARENT]
        small = bp.claim(self.PARENT, close, "higher")
        assert small["wins"] == 10 and small["median_gap"] == 2
        assert not small["holds"]
        # A lower-is-better metric: the mirrored numbers hold the same way.
        assert bp.claim([-p for p in self.PARENT], [-c for c in self.CHANGE],
                        "lower")["holds"]

    def test_claim_on_a_lower_is_better_metric(self):
        bp = _load("bench_pairs")
        metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}]

        def result(ops, setup):
            return {"metrics": {"ops_per_s": {"value": ops},
                                "setup_s": {"value": setup}}}

        # The change starts faster in nine pairs of ten at the same ops/s.
        runs = [{"parent": result(100.0, p / 1000), "change": result(100.0, c / 1000)}
                for p, c in zip(self.PARENT, [c - 20 for c in self.PARENT])]
        runs[5]["change"] = result(100.0, 0.101)
        block = bp.claim_block("roundtrip", "setup_s", runs, metrics)
        assert (block["workload"], block["metric"], block["wins"]) == (
            "roundtrip", "setup_s", 9
        )
        assert block["median_gap"] == 0.0195 and block["parent_iqr"] == 0.0025
        assert block["holds"]
        # Read as higher-is-better, the same series would lose.
        assert not bp.claim_block("roundtrip", "ops_per_s", runs, metrics)["holds"]

    def test_claim_option(self):
        bp = _load("bench_pairs")
        ap = bp.parser([{"name": "ops_per_s"}, {"name": "setup_s"}])
        common = ["--base", "HEAD", "--workload", "roundtrip", "--seeds", "1",
                  "--out", "x.json"]
        assert ap.parse_args(common).claim is None
        assert ap.parse_args([*common, "--claim"]).claim == "ops_per_s"
        assert ap.parse_args([*common, "--claim", "setup_s"]).claim == "setup_s"

    def test_bound(self):
        bp = _load("bench_pairs")
        within = bp.summarize([10.0, 10.0, 10.0], [11.9, 11.9, 11.9], "lower", 0.2)
        assert within["within_bound"] and within["median_change"] == "+19.0 %"
        assert not bp.summarize([10.0] * 3, [12.1] * 3, "lower", 0.2)["within_bound"]
        assert bp.summarize([10.0] * 3, [8.1] * 3, "higher", 0.2)["within_bound"]
        assert not bp.summarize([10.0] * 3, [7.9] * 3, "higher", 0.2)["within_bound"]

    def test_block_layout(self):
        bp = _load("bench_pairs")
        metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]

        def result(ops):
            return {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}}}

        runs = [
            {"seed": 1, "first": "parent", "parent": result(100.0),
             "change": result(120.0)},
            {"seed": 2, "first": "change", "parent": result(101.0),
             "change": result(119.0)},
        ]
        block = bp.pairs_block(runs, metrics, [1, 2])
        assert block["pairs"] == 2 and block["change_wins"] == {"ops_per_s": 2}
        assert block["attempted"] == {"parent": 20, "change": 20}
        assert block["failed"] == {"parent": 0, "change": 0} and block["correct"]
        assert block["metrics"]["ops_per_s"]["median_change"] == "+18.9 %"
        assert block["runs"][1] == {"seed": 2, "first": "change",
                                    "parent": {"ops_per_s": 101.0},
                                    "change": {"ops_per_s": 119.0}}

    def test_bound_report(self):
        bp = _load("bench_pairs")
        metrics = [
            {"name": "ops_per_s", "better": "higher", "bound": 0.2},
            {"name": "op_us_p99", "better": "lower", "bound": 0.2},
        ]

        def block(ops, p99, failed=(0, 0), attempted=(100, 120)):
            return {
                "metrics": {
                    "ops_per_s": bp.summarize([100.0] * 3, [ops] * 3, "higher", 0.2),
                    "op_us_p99": bp.summarize([10.0] * 3, [p99] * 3, "lower", 0.2),
                },
                "failed": dict(zip(("parent", "change"), failed)),
                "attempted": dict(zip(("parent", "change"), attempted)),
            }

        lines, ok = bp.bound_report("scan", block(110.0, 11.9), metrics)
        assert ok
        assert lines == [
            "scan ops_per_s: +10.0 %, within its bound of 20%",
            "scan op_us_p99: +19.0 %, within its bound of 20%",
        ]
        lines, ok = bp.bound_report("scan", block(110.0, 12.1), metrics)
        assert not ok
        assert lines[1] == "scan op_us_p99: +21.0 %, OUTSIDE its bound of 20%"
        lines, ok = bp.bound_report("scan", block(79.0, 10.0), metrics)
        assert not ok and "OUTSIDE" in lines[0]
        # The change attempts more ops; only a larger share of failures fails.
        assert bp.bound_report("scan", block(110.0, 10.0, (1, 1)), metrics)[1]
        lines, ok = bp.bound_report("scan", block(110.0, 10.0, (0, 1)), metrics)
        assert not ok
        assert lines[-1] == "scan failed ops: change 1 of 120, parent 0 of 100"


def test_lenient_audit_of_short_sequences():
    # Sequences of 1..3 morphemes. The 208 era grammars read only the
    # sequences the lenient grammar accepts, so none is counted rejected
    # there (the side it rejects is pinned on the eight eras), and the test
    # stays short.
    audit = _load("lenient_audit")
    profiles = audit.grammar_profiles()
    grammar = importlib.import_module("hannum.parse")._grammar
    assert len({grammar(p) for p in profiles}) == len(profiles) == 208
    assert {p.max_value for p in profiles} == {10**12 - 1}
    seqs = list(audit.sequences(3))
    assert len(seqs) == 19 + 19**2 + 19**3
    accepted = [s for s in seqs if audit._value(s, None) is not None]
    assert audit.audit(accepted, profiles) == {
        "accepts": 1281, "lenient_only": 12, "lenient_only_ling_drop": 0,
        "rejected": 0, "value_ling_drop": 36, "value_other": 0,
    }
    assert audit.audit(seqs, hannum.CHRONOLOGY) == {
        "accepts": 1281, "lenient_only": 348, "lenient_only_ling_drop": 156,
        "rejected": 0, "value_ling_drop": 9, "value_other": 63,
    }


def test_lenient_audit_report_lines(capsys):
    audit = _load("lenient_audit")
    assert audit.main(["--length", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sequences of 1..1 morphemes"
    assert out[1] == "208 era grammars, ceiling 10^12 - 1:"
    assert out[6] == "eight standard eras:"
    assert out[2] == out[7] == "  lenient accepts: 16"
    assert len(out) == 11
