"""The module-level names that bench/spans.py wraps stay bound and in use.

A traced benchmark run replaces each name below with a timing wrapper. If a
refactor unbinds one, the traced run fails with AttributeError; if the code
stops calling it, its layer silently reads zero. Each case wraps the name
the same way and checks that a representative call goes through it; the
names hannum no longer calls only have to stay bound.
"""

import importlib

import pytest

import hannum
import hannum.cli
import hannum.scan
from hannum.cli import main


def _cli_scan(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text("共一百零五人", encoding="utf-8")
    assert main(["scan", "--csv", str(path)]) == 0


@pytest.mark.parametrize(
    "owner, attr, op",
    [
        ("hannum.chronolect", "tokenize", lambda _: hannum.classify("一百零五")),
        ("hannum.scan", "tokenize", lambda _: hannum.scan_text("共一百零五人")),
        ("hannum.cli", "scan_text", _cli_scan),
        ("hannum.parse", "parse", lambda _: hannum.parse_text("一百零五")),
        # With an Era, as the roundtrip benchmark calls it, on both scripts:
        # the traced run reads parse.parse.<era> from these calls.
        pytest.param(
            "hannum.parse", "parse",
            lambda _: hannum.parse_text("一百零五", hannum.Era.CONTEMPORARY),
            id="hannum.parse-parse-han-era",
        ),
        pytest.param(
            "hannum.parse", "parse",
            lambda _: hannum.parse_text("yī bǎi líng wǔ", hannum.Era.CONTEMPORARY),
            id="hannum.parse-parse-pinyin-era",
        ),
        ("hannum.generate", "NumeralExpression.text",
         lambda _: hannum.render_integer(105).text()),
    ],
)
def test_patch_point_is_called(monkeypatch, tmp_path, capsys, owner, attr, op):
    # Empty process memos, so that scan_text reads its span afresh.
    monkeypatch.setattr(hannum.scan, "_READINGS", {})
    monkeypatch.setattr(hannum.cli, "_TAILS", {})
    target = importlib.import_module(owner)
    *path, name = attr.split(".")
    for part in path:
        target = getattr(target, part)
    original = getattr(target, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    op(tmp_path)
    assert calls, f"{owner}.{attr} is bound but no longer called"


# scan_text reads each span with parse._read_span, not with parse and
# classify, and feature_profile reads classify's walk, not parse; a traced
# run still wraps these names.
@pytest.mark.parametrize(
    "owner, attr",
    [("hannum.scan", "parse"), ("hannum.scan", "classify"),
     ("hannum.chronolect", "parse")],
)
def test_patch_point_is_still_bound(owner, attr):
    assert callable(getattr(importlib.import_module(owner), attr))
