"""Value semantics of every report, band, delay and sample container.

Each class is immutable, prints its fields (array fields left out), takes
its fields by keyword or by position, validates them at construction, and
survives pickle and deepcopy.  The scalar classes compare and hash by
field; the two classes that hold arrays compare by identity.
"""

import copy
import pickle

import numpy as np
import pytest

from causalgap import (
    AnalogDelay,
    ApproximationReport,
    BandpassInterval,
    DigitalDelay,
    DigitalSequence,
    LimitProbeResult,
    NormEstimate,
    OracleDistance,
    SampledSignal,
)
from causalgap import analog
from causalgap.verify import CheckResult

BAND = BandpassInterval(0.0, 2.0)
DIGITAL_BAND = BandpassInterval(2.0, 4.0, "digital")

#: (class, fields in order, repr) for the eight classes that compare by field
VALUE_CASES = [
    (
        BandpassInterval,
        {"a": 0.0, "b": 2.0, "mode": "analog"},
        "BandpassInterval(a=0.0, b=2.0, mode='analog')",
    ),
    (AnalogDelay, {"T": 1.5}, "AnalogDelay(T=1.5)"),
    (DigitalDelay, {"N": 3}, "DigitalDelay(N=3)"),
    (
        ApproximationReport,
        {
            "kernel_norm": 1.0, "distance": 0.5, "angle": 0.5, "subspace": "Delayed",
            "method": "ClosedForm", "error_estimate": 0.0, "delay": 1.5, "converged": True,
        },
        "ApproximationReport(kernel_norm=1.0, distance=0.5, angle=0.5, subspace='Delayed', "
        "method='ClosedForm', error_estimate=0.0, delay=1.5, converged=True)",
    ),
    (
        NormEstimate,
        {"lower": 1.0, "upper": 1.0},
        "NormEstimate(lower=1.0, upper=1.0)",
    ),
    (
        OracleDistance,
        {"value": 0.5, "tail_bound": 0.01},
        "OracleDistance(value=0.5, tail_bound=0.01)",
    ),
    (
        LimitProbeResult,
        {
            "quantity": "dT_vs_T", "rows": ((1.0, 0.5),), "fitted_limit": 0.25,
            "candidate_limit": None, "reference_bracket": (0.0, 1.0),
        },
        "LimitProbeResult(quantity='dT_vs_T', rows=((1.0, 0.5),), fitted_limit=0.25, "
        "candidate_limit=None, reference_bracket=(0.0, 1.0))",
    ),
    (
        CheckResult,
        {"suite": "analog", "name": "causal-constants", "passed": True, "detail": "ok"},
        "CheckResult(suite='analog', name='causal-constants', passed=True, detail='ok')",
    ),
]

#: (class, fields in order, repr) for the two classes that hold an array
ARRAY_CASES = [
    (
        SampledSignal,
        {"t0": 0.0, "dt": 1.0, "values": np.array([1.0, 2.0j])},
        "SampledSignal(t0=0.0, dt=1.0)",
    ),
    (
        DigitalSequence,
        {"offset": -2, "values": np.array([1.0, 0.5])},
        "DigitalSequence(offset=-2)",
    ),
]

ALL_CASES = VALUE_CASES + ARRAY_CASES
VALUE_CLASSES = {cls for cls, _, _ in VALUE_CASES}


def _ids(cases):
    return [cls.__name__ for cls, _, _ in cases]


def _same_fields(x, y, fields):
    """Field by field equality, arrays compared element by element."""
    for name in fields:
        left, right = getattr(x, name), getattr(y, name)
        if isinstance(left, np.ndarray):
            if not (left.dtype == right.dtype and np.array_equal(left, right)):
                return False
        elif left != right:
            return False
    return True


class TestRepr:
    @pytest.mark.parametrize("cls, fields, text", ALL_CASES, ids=_ids(ALL_CASES))
    def test_repr_shows_the_scalar_fields(self, cls, fields, text):
        assert repr(cls(**fields)) == text


class TestConstruction:
    @pytest.mark.parametrize("cls, fields, text", ALL_CASES, ids=_ids(ALL_CASES))
    def test_keyword_and_positional_agree(self, cls, fields, text):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert _same_fields(by_keyword, by_position, fields)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(by_keyword, name), value)
            else:
                assert getattr(by_keyword, name) == value

    def test_defaults(self):
        assert BandpassInterval(0.0, 2.0).mode == "analog"
        rep = ApproximationReport(1.0, 0.5, 0.5, "Causal", "ClosedForm")
        assert (rep.error_estimate, rep.delay, rep.converged) == (0.0, None, True)
        probe = LimitProbeResult("dT_vs_T", ((1.0, 0.5),), None)
        assert (probe.candidate_limit, probe.reference_bracket) == (None, None)

    def test_array_fields_are_read_only_complex_copies(self):
        raw = np.array([1.0, 2.0])
        for holder in (
            SampledSignal(0.0, 1.0, raw),
            DigitalSequence(0, raw),
        ):
            assert holder.values.dtype == np.complex128
            assert not holder.values.flags.writeable
            assert not np.shares_memory(holder.values, raw)


class TestEquality:
    @pytest.mark.parametrize("cls, fields, text", VALUE_CASES, ids=_ids(VALUE_CASES))
    def test_value_types_compare_and_hash_by_field(self, cls, fields, text):
        x, y = cls(**fields), cls(**fields)
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert x != tuple(fields.values())
        assert len({x, y}) == 1

    @pytest.mark.parametrize(
        "x, y",
        [
            (BandpassInterval(0.0, 2.0), BandpassInterval(0.0, 3.0)),
            (BandpassInterval(2.0, 4.0), BandpassInterval(2.0, 4.0, "digital")),
            (AnalogDelay(1.0), AnalogDelay(2.0)),
            (DigitalDelay(1), DigitalDelay(2)),
            (ApproximationReport(1.0, 0.5, 0.5, "Delayed", "ClosedForm", delay=1.0),
             ApproximationReport(1.0, 0.5, 0.5, "Delayed", "ClosedForm", delay=2.0)),
            (OracleDistance(0.5, 0.01), OracleDistance(0.5, 0.02)),
            (CheckResult("analog", "x", True, "ok"), CheckResult("analog", "x", False, "ok")),
        ],
    )
    def test_one_field_apart_is_unequal(self, x, y):
        assert x != y

    def test_different_classes_with_equal_fields_are_unequal(self):
        assert AnalogDelay(3) != DigitalDelay(3)

    @pytest.mark.parametrize("cls, fields, text", ARRAY_CASES, ids=_ids(ARRAY_CASES))
    def test_array_holders_compare_by_identity(self, cls, fields, text):
        x, y = cls(**fields), cls(**fields)
        assert x == x and x != y
        assert hash(x) == object.__hash__(x)
        assert len({x, y}) == 2


class TestImmutability:
    @pytest.mark.parametrize("cls, fields, text", ALL_CASES, ids=_ids(ALL_CASES))
    def test_fields_cannot_be_set_or_deleted(self, cls, fields, text):
        obj = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1.0
        assert _same_fields(obj, cls(**fields), fields)


class TestRoundTrips:
    @pytest.mark.parametrize("cls, fields, text", ALL_CASES, ids=_ids(ALL_CASES))
    def test_pickle_and_deepcopy(self, cls, fields, text):
        obj = cls(**fields)
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(clone) is cls
            assert _same_fields(clone, obj, fields)
            assert repr(clone) == text
            if cls in VALUE_CLASSES:
                assert clone == obj and hash(clone) == hash(obj)


class TestValidation:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: BandpassInterval(float("inf"), 1.0), "band edges must be finite"),
            (lambda: BandpassInterval(0.0, float("nan")), "band edges must be finite"),
            (lambda: BandpassInterval(2.0, 1.0), "band edges must satisfy a < b, got [2.0, 1.0]"),
            (lambda: BandpassInterval(1.0, 1.0), "band edges must satisfy a < b, got [1.0, 1.0]"),
            (lambda: BandpassInterval(-1e308, 1e308),
             "band width b - a overflows, got [-1e+308, 1e+308]"),
            (lambda: BandpassInterval(0.0, 1.0, "optical"), "unknown mode 'optical'"),
            (lambda: BandpassInterval(0.0, 1.0, "digital"),
             "digital band must lie strictly inside (0, 2*pi), got [0.0, 1.0]"),
            (lambda: BandpassInterval(1.0, 7.0, "digital"),
             "digital band must lie strictly inside (0, 2*pi), got [1.0, 7.0]"),
            # the checks run in order, so the first failing one names the error
            (lambda: BandpassInterval(2.0, float("inf"), "optical"), "band edges must be finite"),
            (lambda: BandpassInterval(2.0, 1.0, "optical"), "band edges must satisfy a < b"),
            (lambda: BandpassInterval(-1e308, 1e308, "optical"), "band width b - a overflows"),
            (lambda: AnalogDelay(-1.0), "delay T must be finite and nonnegative"),
            (lambda: AnalogDelay(float("inf")), "delay T must be finite and nonnegative"),
            (lambda: AnalogDelay(float("nan")), "delay T must be finite and nonnegative"),
            (lambda: DigitalDelay(-1), "delay N must be a nonnegative integer"),
            (lambda: DigitalDelay(1.0), "delay N must be a nonnegative integer"),
            (lambda: DigitalDelay(True), "delay N must be a nonnegative integer"),
            # the tail sums start at N + 1, which must stay exact in double precision
            (lambda: DigitalDelay(2**53), "delay N must be a nonnegative integer"),
            (lambda: DigitalDelay(2**64), "delay N must be a nonnegative integer"),
            (lambda: SampledSignal(float("inf"), 1.0, [1.0]), "need finite t0 and dt > 0"),
            (lambda: SampledSignal(0.0, 0.0, [1.0]), "need finite t0 and dt > 0"),
            (lambda: SampledSignal(0.0, -1.0, [float("nan")]), "need finite t0 and dt > 0"),
            (lambda: SampledSignal(0.0, 1.0, []), "values must be a nonempty 1-d array"),
            (lambda: SampledSignal(0.0, 1.0, [[1.0]]), "values must be a nonempty 1-d array"),
            (lambda: SampledSignal(0.0, 1.0, [1.0, float("inf")]), "values must be finite"),
            (lambda: DigitalSequence(1.0, [1.0]), "offset must be an integer"),
            (lambda: DigitalSequence(False, [1.0]), "offset must be an integer"),
            (lambda: DigitalSequence(0, np.zeros(0)), "values must be a nonempty 1-d array"),
            (lambda: DigitalSequence(0, [complex("nan")]), "values must be finite"),
            (lambda: ApproximationReport(-1.0, 0.0, 0.0, "Causal", "ClosedForm"),
             "norms and distances must be nonnegative"),
            (lambda: ApproximationReport(1.0, -0.5, 0.0, "Causal", "ClosedForm"),
             "norms and distances must be nonnegative"),
            (lambda: ApproximationReport(1.0, 2.0, 0.5, "Causal", "ClosedForm"),
             "distance cannot exceed the kernel norm"),
            (lambda: ApproximationReport(1.0, 0.5, 2.0, "Causal", "ClosedForm"),
             "angle must lie in [0, pi/2]"),
            (lambda: ApproximationReport(1.0, 0.5, -0.1, "Causal", "ClosedForm"),
             "angle must lie in [0, pi/2]"),
            (lambda: ApproximationReport(1.0, 0.5, 0.5, "Acausal", "ClosedForm"),
             "unknown subspace 'Acausal'"),
            (lambda: analog._sample(DIGITAL_BAND, 0.0, 1.0, 1), "expected an analog band"),
            (lambda: NormEstimate(2.0, 1.0), "lower bound exceeds upper bound"),
        ],
    )
    def test_invalid_fields_are_rejected(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value).startswith(message)
