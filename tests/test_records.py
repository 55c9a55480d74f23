"""The result records built by core._builder, against the dataclass ones.

parse, the renderers, classify and scan_text build their frozen records
through a positional builder that stores the fields with plain slot stores
on a same-layout twin class and then sets the record's own class. A record
built that way must be indistinguishable from one built by keyword, its
type is never the twin, and the hot paths must not reach the dataclass
__init__ at all.
"""

import copy
import dataclasses
import pickle

import pytest

import hannum
from hannum import (
    Era,
    EraConsistencyReport,
    EraVerdict,
    NumeralExpression,
    ParseOutcome,
    ScanRecord,
    classify,
    era_profile,
    parse,
    parse_text,
    render_elliptic,
    render_integer,
    scan_text,
)
from hannum.chronolect import _report, _verdict
from hannum.core import _builder
from hannum.generate import _expression
from hannum.parse import _outcome
from hannum.scan import _record

_OUTCOME = parse_text("一百零五", "contemporary")
_EXPRESSION = render_integer(105)
_REPORT = classify("一百零五")
_REJECTED = classify("十十五").verdicts[0]
_RECORD = scan_text("共一百零五人")[0][0]


def _fields(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _keyword(record):
    cls = type(record)
    return cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})


# (builder, a record the library built through it, whether the record holds
# no exception: exceptions compare by identity, so a copy of one that holds a
# rejection is compared field by field instead).
_CASES = [
    pytest.param(_outcome, _OUTCOME, True, id="ParseOutcome"),
    pytest.param(_expression, _EXPRESSION, True, id="NumeralExpression"),
    pytest.param(_verdict, _REPORT.verdicts[-1], True, id="EraVerdict-accepts"),
    pytest.param(_verdict, _REJECTED, False, id="EraVerdict-rejects"),
    pytest.param(_report, _REPORT, False, id="EraConsistencyReport"),
    pytest.param(_record, _RECORD, True, id="ScanRecord"),
]


def _twins(record):
    return [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)]


@pytest.mark.parametrize("build, sample, exact", _CASES)
class TestBuilderParity:
    def test_equal_to_the_keyword_record(self, build, sample, exact):
        built = build(*_fields(sample))
        by_keyword = _keyword(sample)
        assert type(built) is type(by_keyword)
        assert built == by_keyword
        assert hash(built) == hash(by_keyword)
        assert repr(built) == repr(by_keyword)
        assert all(x is y for x, y in zip(_fields(built), _fields(by_keyword)))

    def test_pickle_copy_and_replace(self, build, sample, exact):
        built = build(*_fields(sample))
        by_keyword = _keyword(sample)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(built, protocol) == pickle.dumps(by_keyword, protocol)
        for mine, theirs in zip(_twins(built), _twins(by_keyword)):
            assert type(mine) is type(theirs) is type(sample)
            assert repr(mine) == repr(theirs) == repr(sample)
            if hasattr(sample, "as_dict"):
                assert mine.as_dict() == theirs.as_dict() == sample.as_dict()
            if exact:
                assert mine == theirs == sample
                assert hash(mine) == hash(theirs) == hash(sample)

    def test_frozen(self, build, sample, exact):
        built = build(*_fields(sample))
        for f in dataclasses.fields(built):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, f.name, getattr(built, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, f.name)

    def test_slotted(self, build, sample, exact):
        built = build(*_fields(sample))
        assert not hasattr(built, "__dict__")


class TestBuilderLayout:
    """_builder refuses, when it is made, a class it cannot fill through a
    same-layout twin, and no record it builds keeps the twin's type."""

    def test_unslotted_class(self):
        @dataclasses.dataclass(frozen=True)
        class Plain:
            a: int

        with pytest.raises(TypeError, match="Plain has __slots__ None"):
            _builder(Plain)

    def test_slots_other_than_the_fields(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Base:
            a: int

        @dataclasses.dataclass(frozen=True, slots=True)
        class Derived(Base):
            b: int

        # Derived's own slots hold b alone; its fields are a and b.
        with pytest.raises(TypeError, match=r"fields \('a', 'b'\); Derived"):
            _builder(Derived)
        assert _builder(Base)(1).a == 1

    def test_layout_other_than_the_slots(self):
        class Loose:
            pass

        # Slots equal to the fields, but a __dict__ from the base: the twin
        # has none, so CPython refuses the class change.
        @dataclasses.dataclass(frozen=True, slots=True)
        class OnDict(Loose):
            a: int

        with pytest.raises(TypeError, match="layout differs"):
            _builder(OnDict)

    @pytest.mark.parametrize("build, sample, exact", _CASES)
    def test_built_record_is_never_the_twin(self, build, sample, exact):
        twin = build.__globals__["_twin"]
        assert twin is not type(sample)
        assert twin.__slots__ == type(sample).__slots__
        assert type(build(*_fields(sample))) is type(sample)
        assert not isinstance(build(*_fields(sample)), twin)

    def test_library_records_are_never_twins(self):
        records, _ = scan_text("共一百零五人，十十五")
        built = [
            _OUTCOME, _EXPRESSION, _REPORT, *_REPORT.verdicts, *records,
            render_integer(10**9),
            parse([hannum.digit(5)]),
        ]
        public = (ParseOutcome, NumeralExpression, EraVerdict, EraConsistencyReport,
                  ScanRecord)
        assert all(type(record) in public for record in built)

    def test_verdict_check_runs_on_the_record(self, monkeypatch):
        # The check's __post_init__ is the record's own: it runs after the
        # builder has given the instance its class.
        seen = []
        monkeypatch.setattr(EraVerdict, "__post_init__", lambda self: seen.append(
            type(self)))
        _verdict(Era.CONTEMPORARY, None, None)
        assert seen == [EraVerdict]


def test_expression_profile_takes_no_part_in_equality():
    built = _expression(_EXPRESSION.tokens, Era.CONTEMPORARY, False, None)
    assert built == _EXPRESSION
    assert hash(built) == hash(_EXPRESSION)
    assert built.profile is None
    assert _EXPRESSION.profile is era_profile(Era.CONTEMPORARY)


class TestVerdictCheck:
    _ERROR = _REJECTED.error

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EraVerdict(era=Era.CONTEMPORARY),
            lambda: EraVerdict(
                era=Era.CONTEMPORARY, value=5, error=TestVerdictCheck._ERROR
            ),
            lambda: _verdict(Era.CONTEMPORARY, None, None),
            lambda: _verdict(Era.CONTEMPORARY, 5, TestVerdictCheck._ERROR),
        ],
        ids=["keyword-neither", "keyword-both", "builder-neither", "builder-both"],
    )
    def test_exactly_one_of_value_and_error(self, make):
        with pytest.raises(ValueError, match="exactly one of value or error"):
            make()

    def test_replace_keeps_the_check(self):
        accepts = _verdict(Era.CONTEMPORARY, 5, None)
        with pytest.raises(ValueError, match="exactly one of value or error"):
            dataclasses.replace(accepts, error=self._ERROR)
        assert dataclasses.replace(accepts, value=6).value == 6


class TestHotPathsSkipInit:
    """With every record class's __init__ made to raise, the hot paths still
    run: they build through the builder."""

    @pytest.fixture(autouse=True)
    def _no_init(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__}.__init__ was called")

        for cls in (
            ParseOutcome, NumeralExpression, EraVerdict, EraConsistencyReport,
            ScanRecord,
        ):
            monkeypatch.setattr(cls, "__init__", refuse)

    def test_init_refuses(self):
        with pytest.raises(AssertionError):
            ParseOutcome(value=1, era_checked=None, features=_OUTCOME.features)

    @pytest.mark.parametrize("era", list(Era))
    def test_render_and_parse(self, era):
        expr = render_integer(1234, era)
        assert expr.value == 1234
        assert parse(expr.tokens, era).value == 1234
        assert parse_text(expr.text(), era).value == 1234
        assert parse(expr.tokens, era_profile(era)).value == 1234

    def test_render_elliptic(self):
        expr = render_elliptic(1500)
        assert expr.elliptic and expr.value == 1500
        opts = hannum.RenderOptions(elliptic=True)
        assert render_integer(1500, Era.CONTEMPORARY, opts) == expr

    def test_lenient_parse(self):
        assert parse_text("一百零五").value == 105

    def test_classify(self):
        report = classify("十有五")
        assert len(report.verdicts) == len(Era)
        assert Era.SHANG_ORACLE in report.consistent
        assert not classify("十十五").consistent

    def test_scan_text(self):
        records, summary = scan_text("共一百零五人，十十五")
        assert [r.ok for r in records] == [True, False]
        assert summary.expressions == 2
