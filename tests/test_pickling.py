"""Parse errors, and the reports and scan records that carry them, survive
pickle and copy."""

import copy
import json
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hannum import classify, parse, parse_text, run_selftest, scan_text, tokenize
from hannum.chronolect import _coerce_tokens
from hannum.core import digit, pivot
from hannum.parse import NumeralParseError, ParseErrorKind, _error_dict
from test_parser import err as _raised, error_fields as _error_fields

_SRC = Path(__file__).resolve().parent.parent / "src"


def _round_trips(obj):
    return [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(obj), copy.deepcopy(obj)]


# One error from each place in hannum that builds one, by that place.
_SITES = {
    "tokenize-han-unknown": lambda: _raised(tokenize, "一百x"),
    "tokenize-pinyin-unknown": lambda: _raised(tokenize, "yī bǎi xyz"),
    "tokenize-empty": lambda: _raised(tokenize, "  "),
    "parse-empty": lambda: _raised(parse, ()),
    "parse-reject": lambda: _raised(parse, (pivot(1), pivot(1), digit(5)), "song-qin"),
    "parse-overflow": lambda: _raised(parse, (digit(5), pivot(8)), "dunhuang"),
    "classify-verdict": lambda: classify("十十五").verdict_for("dunhuang").error,
    "scan-text": lambda: scan_text("十十五")[0][0].error,
    "coerce-tokens": lambda: _raised(_coerce_tokens, ()),
}


class TestNumeralParseError:
    def test_constructed_error(self):
        err = NumeralParseError(ParseErrorKind.OVERFLOW, 3, "too large")
        for twin in _round_trips(err):
            assert _error_fields(twin) == _error_fields(err)
            assert str(twin) == "Overflow at 3: too large"

    @pytest.mark.parametrize("text", ["十十五", "一百x", "", "一零零"])
    def test_raised_error(self, text):
        with pytest.raises(NumeralParseError) as info:
            parse_text(text, "contemporary")
        for twin in _round_trips(info.value):
            assert _error_fields(twin) == _error_fields(info.value)


@pytest.mark.parametrize("site", _SITES)
def test_built_error_is_the_constructed_one(site):
    # hannum builds its errors without running __init__; each must equal the
    # error the public constructor makes from its fields, and survive pickle
    # and copy as that one does.
    err = _SITES[site]()
    twin = NumeralParseError(err.kind, err.position, err.message)
    assert _error_fields(err) == _error_fields(twin)
    assert repr(err) == repr(twin)
    assert _error_dict(err) == {
        "kind": err.kind.value, "position": err.position, "message": err.message
    }
    for copied in _round_trips(err):
        assert _error_fields(copied) == _error_fields(twin)


# Every error hannum builds, and one built by the public constructor.
_SLOTTED = {
    **_SITES,
    "constructed": lambda: NumeralParseError(ParseErrorKind.OVERFLOW, 3, "too large"),
}


@pytest.mark.parametrize("site", _SLOTTED)
class TestSlottedError:
    # The fields live in slots: the instance has no dict of its own, but it
    # takes weak references, and the exception's dict still holds notes and
    # whatever a caller sets.
    def test_weak_reference(self, site):
        err = _SLOTTED[site]()
        assert weakref.ref(err)() is err

    def test_no_instance_dict(self, site):
        assert vars(_SLOTTED[site]()) == {}

    def test_notes_and_attributes(self, site):
        err = _SLOTTED[site]()
        err.add_note("x")
        err.extra = 1
        assert err.__notes__ == ["x"] and err.extra == 1
        assert vars(err) == {"__notes__": ["x"], "extra": 1}

    def test_user_subclass(self, site):
        err = _SLOTTED[site]()
        mine = _UserError(err.kind, err.position, err.message)
        assert (mine.kind, mine.position, mine.message, mine.args) == (
            err.kind, err.position, err.message, err.args
        )
        for twin in _round_trips(mine):
            assert _error_fields(twin) == _error_fields(mine)


class _UserError(NumeralParseError):
    pass


@pytest.mark.parametrize("kind", ["Overflow", None, 3])
def test_constructor_kind_must_be_a_kind(kind):
    with pytest.raises(TypeError) as info:
        NumeralParseError(kind, 1, "m")
    assert str(info.value) == (
        f"kind must be a ParseErrorKind, not {type(kind).__name__}"
    )


def test_error_kinds_stay_keys_and_pickle():
    kinds = list(ParseErrorKind)
    assert len(set(kinds)) == len({kind: kind.value for kind in kinds}) == 11
    for kind in kinds:
        assert {kind} == {ParseErrorKind(kind.value)}
        assert kind in dict.fromkeys(kinds)
        for twin in _round_trips(kind):
            assert twin is kind


def test_classify_report_with_rejecting_eras():
    report = classify("十十五")
    assert not any(v.accepts for v in report.verdicts)
    for twin in _round_trips(report):
        assert twin.as_dict() == report.as_dict()
        for mine, theirs in zip(twin.verdicts, report.verdicts):
            assert _error_fields(mine.error) == _error_fields(theirs.error)


def test_error_scan_record():
    records, _ = scan_text("共十十五人")
    (record,) = records
    assert record.error is not None
    for twin in _round_trips(record):
        assert twin.as_dict() == record.as_dict()
        assert _error_fields(twin.error) == _error_fields(record.error)


def test_records_of_the_lazy_modules_load_after_import_hannum_alone():
    # Unpickling imports a record's own module, so an interpreter that has
    # run nothing but `import hannum`, which loads none of chronolect, scan
    # and selftest, reads them back.
    report = classify("十有五")
    records = [
        report.verdicts[0], report.verdicts[-1], report,
        scan_text("共十有五人，十十五人")[0][0], scan_text("十十五")[0][0],
        run_selftest(max_value=0),
    ]
    expected = [[type(r).__module__, type(r).__name__, r.as_dict()] for r in records]
    code = (
        "import json, pickle, sys\n"
        f"sys.path.insert(0, {str(_SRC)!r})\n"
        "import hannum\n"
        "before = sorted(m for m in sys.modules if m.startswith('hannum'))\n"
        "records = pickle.loads(sys.stdin.buffer.read())\n"
        "print(json.dumps([before, [[type(r).__module__, type(r).__name__,"
        " r.as_dict()] for r in records]], ensure_ascii=False))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], input=pickle.dumps(records),
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    before, loaded = json.loads(done.stdout)
    assert before == ["hannum", "hannum.core", "hannum.generate", "hannum.parse"]
    assert loaded == json.loads(json.dumps(expected, ensure_ascii=False))
    assert [name for _, name, _ in loaded] == [
        "EraVerdict", "EraVerdict", "EraConsistencyReport", "ScanRecord",
        "ScanRecord", "SelfTestReport",
    ]
