"""Smoke tests for the scripts in scripts/."""

import importlib.util
from pathlib import Path

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
