"""The contract of the frozen value records: construction, equality, hash, repr, immutability, pickle and copy."""

import copy
import math
import pickle

import pytest

from ssflow import (
    ClosedFormProfile,
    CriticalExponents,
    EquivalenceReport,
    IntegrationSettings,
    PLEParams,
    PMEParams,
    ProfileSample,
    SimilarityType,
    StopEvent,
    Trajectory,
    UnifiedCoefficients,
)

TYPE_I, TYPE_II = SimilarityType.TYPE_I, SimilarityType.TYPE_II
GRID, POINTS, SLOPES = (0.0, 0.5), ((1.0, 2.0), (3.0, 4.0)), ((0.5, -0.5), (1.5, -1.5))

# cls, the required arguments, the defaulted ones as given explicitly, and the repr of the
# record built from the required arguments alone (so every default shows)
RECORDS = [
    (ProfileSample, dict(eta=0.5, f=2.0, fprime=-1.0), {},
     "ProfileSample(eta=0.5, f=2.0, fprime=-1.0)"),
    (PMEParams, dict(m=2.0, n=1.0, beta=0.3), dict(sim_type=TYPE_I),
     "PMEParams(m=2.0, n=1.0, beta=0.3, sim_type=<SimilarityType.TYPE_I: 1>)"),
    (PLEParams, dict(p=3.0, n=1.0, beta=0.3), dict(sim_type=TYPE_I),
     "PLEParams(p=3.0, n=1.0, beta=0.3, sim_type=<SimilarityType.TYPE_I: 1>)"),
    (CriticalExponents, dict(m_c=-1.0, m_s=-1 / 3, p_c=1.0, p_s=2 / 3), {},
     "CriticalExponents(m_c=-1.0, m_s=-0.3333333333333333, p_c=1.0, p_s=0.6666666666666666)"),
    (UnifiedCoefficients, dict(c1=2.0, c2=0.5, c3=-1.5, sqrt_abs_b=2.0, const_term=1, psi_coeff=-1),
     dict(critical=False),
     "UnifiedCoefficients(c1=2.0, c2=0.5, c3=-1.5, sqrt_abs_b=2.0, const_term=1, psi_coeff=-1, critical=False)"),
    (EquivalenceReport,
     dict(c_max_rel_dev=1e-16, beta_dev=0.0, b_ratio_dev=2e-16, sign_match=True, psi_match=True, tol=1e-10),
     dict(flipped=False),
     "EquivalenceReport(c_max_rel_dev=1e-16, beta_dev=0.0, b_ratio_dev=2e-16, sign_match=True, "
     "psi_match=True, tol=1e-10, flipped=False)"),
    (StopEvent, dict(component=1, bound=0.25), dict(direction=0),
     "StopEvent(component=1, bound=0.25, direction=0)"),
    (IntegrationSettings, {}, dict(rel_tol=1e-9, abs_tol=1e-12, max_step=math.inf, max_steps=100_000,
                                   stop_events=()),
     "IntegrationSettings(rel_tol=1e-09, abs_tol=1e-12, max_step=inf, max_steps=100000, stop_events=())"),
    (Trajectory, dict(grid=GRID, points=POINTS, slopes=SLOPES), dict(status="completed", meta={}),
     "Trajectory(grid=(0.0, 0.5), points=((1.0, 2.0), (3.0, 4.0)), slopes=((0.5, -0.5), (1.5, -1.5)), "
     "status='completed', meta={})"),
    (ClosedFormProfile, {}, dict(constants={}, params=None, f=None, fprime=None, fsecond=None,
                                 support=(0.0, math.inf)),
     "ClosedFormProfile(constants={}, params=None, f=None, fprime=None, fsecond=None, support=(0.0, inf))"),
]

# One record of each class, every default overridden and other values than RECORDS builds: the
# objects that the equality, hash, immutability, pickle and copy checks run on.
VALUES = [
    ProfileSample(0.25, 2.0, -1.0),
    PMEParams(2.0, 1.0, 0.3, TYPE_II),
    PLEParams(3.0, 1.0, 0.3, TYPE_II),
    CriticalExponents(1 / 3, 1 / 5, 1.5, 1.2),
    UnifiedCoefficients(2.0, 0.5, -1.0, 1.0, 0, 1, True),
    EquivalenceReport(1e-16, 0.0, 2e-16, True, False, 1e-10, True),
    StopEvent(0, -0.25, -1),
    IntegrationSettings(1e-6, 1e-8, 0.5, 50, (StopEvent(1, 0.25, 1),)),
    Trajectory(GRID, POINTS, SLOPES, "event", {"accepted": 1}),
    ClosedFormProfile({"C": 1.0}, PMEParams(2.0, 1.0, 1 / 3), math.exp, math.sin, math.cos, (0.0, 2.0)),
]
UNHASHABLE = (Trajectory, ClosedFormProfile)  # each holds a dict


def _fields(record):
    for cls, required, defaulted, _ in RECORDS:
        if type(record) is cls:
            return [*required, *defaulted]
    raise AssertionError(type(record))


def _field_copy(record):
    """A new record of the same class, built from the fields of ``record`` by keyword."""
    return type(record)(**{name: getattr(record, name) for name in _fields(record)})


def _ids(rows):
    return [(row[0] if isinstance(row, tuple) else type(row)).__name__ for row in rows]


@pytest.mark.parametrize("cls, required, defaulted, text", RECORDS, ids=_ids(RECORDS))
def test_construction_defaults_and_repr(cls, required, defaulted, text):
    positional = cls(*required.values())
    keyword = cls(**required, **defaulted)
    assert positional == keyword
    assert cls(*required.values(), *defaulted.values()) == keyword
    assert repr(positional) == repr(keyword) == text


def test_a_mutable_default_is_a_fresh_object():
    assert ClosedFormProfile().constants is not ClosedFormProfile().constants
    assert Trajectory(GRID, POINTS, SLOPES).meta is not Trajectory(GRID, POINTS, SLOPES).meta


@pytest.mark.parametrize("record", VALUES, ids=_ids(VALUES))
def test_equality_and_hash_are_by_field(record):
    twin = _field_copy(record)
    assert twin is not record
    assert twin == record
    assert not twin != record
    values = tuple(getattr(record, name) for name in _fields(record))
    assert record != values
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(values)


@pytest.mark.parametrize("cls, required, defaulted, text", RECORDS, ids=_ids(RECORDS))
def test_other_field_values_are_unequal(cls, required, defaulted, text):
    (record,) = [value for value in VALUES if type(value) is cls]
    assert cls(**required) != record
    assert not cls(**required) == record


def test_classes_with_the_same_values_are_unequal():
    assert PMEParams(3.0, 1.0, 0.3) != PLEParams(3.0, 1.0, 0.3)
    assert not PMEParams(3.0, 1.0, 0.3) == PLEParams(3.0, 1.0, 0.3)
    assert ProfileSample(1.0, 1.0, 0) != StopEvent(1, 1.0, 0)


@pytest.mark.parametrize("record", VALUES, ids=_ids(VALUES))
def test_assignment_and_deletion_raise(record):
    name = _fields(record)[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert getattr(record, name) is before
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("record", VALUES, ids=_ids(VALUES))
def test_pickle_and_copy_round_trips(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_a_trajectory_that_read_its_views_equals_a_fresh_copy():
    traj = Trajectory(GRID, POINTS, SLOPES, "event", {"accepted": 1})
    assert traj.r1 is traj.r1 and traj.states.shape == (2, 2)
    assert traj == _field_copy(traj)
    assert _field_copy(traj) == traj
    assert repr(traj) == repr(_field_copy(traj))
    twin = pickle.loads(pickle.dumps(traj))
    assert twin == traj and list(twin.r1) == list(GRID)
