"""Parse errors, and the reports and scan records that carry them, survive
pickle and copy."""

import copy
import pickle

import pytest

from hannum import classify, parse_text, scan_text
from hannum.parse import NumeralParseError, ParseErrorKind


def _round_trips(obj):
    return [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(obj), copy.deepcopy(obj)]


def _error_fields(err):
    return type(err), err.kind, err.position, err.message, err.args


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
