"""The columnar RWP trace build: byte-identity pins and oracle equivalence.

* SHA-256 pins of ``contact_arrays()`` for seeded RWP traces, computed
  with the per-step ``Segment`` generators, the union-sweep broad phase
  and the per-window Python fold that the columnar build replaced. Any
  change to a single contact, a draw, or the contact order breaks them.
* Hypothesis properties: the columnar generators equal the per-step
  oracles in ``tests/oracles``; the broad phase's candidate set equals the
  union-sweep oracle's at every ``cell_size``; the vectorized fold equals
  the scalar fold on adversarial windows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.fastcontact import (
    _candidate_segment_pairs,
    _fold_contacts,
    _pack_segments,
)
from repro.mobility.rwp import ClassicRWP, ClassicRWPConfig, RWPConfig, SubscriberPointRWP
from repro.mobility.trajectory import Segment, Trajectory, _merge_windows
from tests.oracles import broadphase as broadphase_oracle
from tests.oracles import rwp as rwp_oracle


def arrays_sha256(trace: ContactTrace) -> str:
    h = hashlib.sha256()
    for col, dtype in zip(trace.contact_arrays(), ("<f8", "<f8", "<i8", "<i8"), strict=True):
        h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return h.hexdigest()


# (params, seed, contacts, sha256 of contact_arrays())
RWP_PINS = [
    (
        dict(num_nodes=12, horizon=40_000.0),
        0,
        175,
        "3d2e3c58045147fbf788d3146812616a3a025c51acbfd91e01c0351c448e087d",
    ),
    (
        dict(num_nodes=12, horizon=40_000.0),
        3,
        137,
        "13967fffde1d6cb292408e297d8faa8f24c5feea89bf41b983f331dd6f3146e8",
    ),
    (
        dict(num_nodes=25, horizon=20_000.0),
        7,
        375,
        "c454f412caa15f69ef908b0eb928f448f96fc3d49faeb9c2d2a7cfbad69e415e",
    ),
    # short horizon: most walks are clipped mid-travel or mid-pause
    (
        dict(num_nodes=6, horizon=1_500.0),
        2,
        2,
        "2c2043cd5ed3c16506f9ba30ce851d12f50e19739334aecfe874deab11f8efc8",
    ),
    # max_hop_distance below every point spacing: isolated subscriber points
    (
        dict(
            num_nodes=10,
            horizon=30_000.0,
            max_hop_distance=60.0,
            num_subscriber_points=20,
            comm_range=50.0,
        ),
        5,
        96,
        "952be8133b3b8c4b76de06f813813ed29d9bd1c20211d8a185f4a0c2618a6b4b",
    ),
    (
        dict(num_nodes=8, horizon=25_000.0, contact_cap=None, engine="exact"),
        4,
        43,
        "04622f89831eef1abf94f153d904c060ffd6ee62a6abe2dc5629f19f0f73214d",
    ),
    # the benchmark's 40-node trace at the paper's full 600 000 s horizon
    (
        dict(num_nodes=40),
        1,
        29_722,
        "e27d11e40285b4a861d885fdbefc1be3d6c2e503ca810aa718fb04a1e333c51f",
    ),
]

CLASSIC_PINS = [
    (
        dict(num_nodes=10, horizon=20_000.0),
        1,
        847,
        "616d65225069cfe4e5f98cbc3b59bf3883e0cab181d259976e9e993bd37fdd2d",
    ),
    (
        dict(num_nodes=15, horizon=30_000.0, max_pause=0.0),
        2,
        4_047,
        "1e683d6e67d0408b8cf3d52f633028fbf716e5a3e4cb24e024d0e00e93c63a77",
    ),
    (
        dict(num_nodes=6, horizon=500.0),
        3,
        10,
        "b37706a0fe205c9f42069e04166694bec8136124610841738da15a8f9225bddb",
    ),
]


class TestTracePins:
    @pytest.mark.parametrize(("params", "seed", "contacts", "digest"), RWP_PINS)
    def test_subscriber_rwp(self, params, seed, contacts, digest):
        trace = SubscriberPointRWP(RWPConfig(**params), seed=seed).generate()
        assert len(trace) == contacts
        assert arrays_sha256(trace) == digest

    @pytest.mark.parametrize(("params", "seed", "contacts", "digest"), CLASSIC_PINS)
    def test_classic_rwp(self, params, seed, contacts, digest):
        trace = ClassicRWP(ClassicRWPConfig(**params), seed=seed).generate()
        assert len(trace) == contacts
        assert arrays_sha256(trace) == digest

    def test_isolated_points_exercised(self):
        params = RWP_PINS[4][0]
        gen = SubscriberPointRWP(RWPConfig(**params), seed=5)
        rng = np.random.default_rng(np.random.SeedSequence([5, 0x5297]))
        points = gen._place_points(rng)
        lists = gen._neighbour_lists(points)
        assert any(len(cand) == len(points) - 1 for cand in lists)


def assert_same_trajectories(got: list[Trajectory], want: list[Trajectory]) -> None:
    assert [t.node for t in got] == [t.node for t in want]
    for g, w in zip(got, want, strict=True):
        for name in ("t0", "t1", "x0", "y0", "x1", "y1"):
            np.testing.assert_array_equal(getattr(g, name), getattr(w, name), strict=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(2, 6),
    horizon=st.floats(1.0, 30_000.0),
    points=st.integers(2, 100),
    hop=st.sampled_from([1.0, 80.0, 300.0, 1_000.0]),
    max_pause=st.sampled_from([0.0, 1.0, 1_000.0]),
)
@settings(max_examples=40, deadline=None)
def test_property_subscriber_generator_matches_oracle(
    seed, num_nodes, horizon, points, hop, max_pause
):
    cfg = RWPConfig(
        num_nodes=num_nodes,
        horizon=horizon,
        num_subscriber_points=points,
        max_hop_distance=hop,
        max_pause=max_pause,
    )
    assert_same_trajectories(
        SubscriberPointRWP(cfg, seed=seed).generate_trajectories(),
        rwp_oracle.subscriber_trajectories(cfg, seed),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(2, 6),
    horizon=st.floats(1.0, 20_000.0),
    min_speed=st.floats(0.1, 5.0),
    max_pause=st.sampled_from([0.0, 30.0, 120.0]),
)
@settings(max_examples=40, deadline=None)
def test_property_classic_generator_matches_oracle(
    seed, num_nodes, horizon, min_speed, max_pause
):
    cfg = ClassicRWPConfig(
        num_nodes=num_nodes,
        horizon=horizon,
        min_speed=min_speed,
        max_speed=min_speed * 4.0,
        max_pause=max_pause,
    )
    assert_same_trajectories(
        ClassicRWP(cfg, seed=seed).generate_trajectories(),
        rwp_oracle.classic_trajectories(cfg, seed),
    )


@given(
    seed=st.integers(0, 2**16),
    num_nodes=st.integers(2, 12),
    comm_range=st.sampled_from([10.0, 25.0, 100.0]),
    cell_size=st.sampled_from([None, 5.0, 20.0, 60.0, 250.0, 2_000.0]),
)
@settings(max_examples=40, deadline=None)
def test_property_broad_phase_matches_union_sweep(seed, num_nodes, comm_range, cell_size):
    cfg = RWPConfig(num_nodes=num_nodes, horizon=20_000.0)
    columns = _pack_segments(SubscriberPointRWP(cfg, seed=seed).generate_trajectories())
    got = _candidate_segment_pairs(*columns, comm_range, cell_size=cell_size)
    want = broadphase_oracle.candidate_segment_pairs(
        *columns, comm_range, cell_size=cell_size
    )
    np.testing.assert_array_equal(got[0], want[0], strict=True)
    np.testing.assert_array_equal(got[1], want[1], strict=True)


def scalar_fold(starts, ends, na, nb_, *, contact_cap, min_duration):
    """Per-pair ``_merge_windows``, then the cap and the duration filter."""
    by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s, e, a, b in zip(starts, ends, na, nb_, strict=True):
        by_pair.setdefault((int(a), int(b)), []).append((float(s), float(e)))
    out = []
    for (a, b), windows in by_pair.items():
        for s, e in _merge_windows(windows):
            if contact_cap is not None:
                e = min(e, s + contact_cap)
            if e - s >= min_duration:
                out.append((s, e, a, b))
    return sorted(out)


@st.composite
def window_sets(draw):
    """Windows for a few pairs on a coarse time grid, so that starts tie,
    windows nest and ends touch the next start exactly or within 1e-9."""
    n = draw(st.integers(1, 40))
    grid = st.integers(0, 60).map(lambda k: k * 50.0)
    nudge = st.sampled_from([0.0, 0.0, 5e-10, 1e-9, 2e-9])
    starts, ends, na, nb_ = [], [], [], []
    for _ in range(n):
        a = draw(st.integers(0, 2))
        b = draw(st.integers(a + 1, 3))
        s = draw(grid) + draw(st.one_of(nudge, st.just(1.0)))
        e = s + draw(st.sampled_from([0.5, 1.0, 49.0, 50.0, 120.0, 800.0])) - draw(nudge)
        starts.append(s)
        ends.append(e)
        na.append(a)
        nb_.append(b)
    return (
        np.asarray(starts),
        np.asarray(ends),
        np.asarray(na, dtype=np.int64),
        np.asarray(nb_, dtype=np.int64),
    )


@given(window_sets(), st.sampled_from([None, 100.0, 500.0]), st.sampled_from([0.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_property_vectorized_fold_matches_scalar_fold(windows, contact_cap, min_duration):
    got = _fold_contacts(*windows, contact_cap=contact_cap, min_duration=min_duration)
    rows = list(
        zip(*(col.tolist() for col in got), strict=True)
    )
    assert rows == scalar_fold(*windows, contact_cap=contact_cap, min_duration=min_duration)


class TestColumnarTrajectory:
    def test_from_columns_equals_segment_constructor(self):
        segs = [Segment(0.0, 10.0, 0.0, 0.0, 3.0, 4.0), Segment(10.0, 25.0, 3.0, 4.0, 3.0, 4.0)]
        a = Trajectory(2, segs)
        rows = [(s.t0, s.t1, s.x0, s.y0, s.x1, s.y1) for s in segs]
        b = Trajectory.from_columns(2, *zip(*rows, strict=True))
        assert list(a.segments) == list(b.segments) == segs
        assert a.position(17.0) == b.position(17.0)
        assert a.max_speed() == b.max_speed() == 0.5

    def test_segments_len_does_not_materialize(self):
        traj = Trajectory.from_columns(0, [0.0, 1.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0],
                                       [0.0, 0.0], [0.0, 0.0])
        assert len(traj.segments) == 2
        assert traj.segments._items is None
        assert traj.segments[1] == Segment(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)

    def test_columns_are_read_only(self):
        traj = Trajectory.from_columns(0, [0.0], [1.0], [0.0], [0.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            traj.t0[0] = 5.0

    @pytest.mark.parametrize(
        ("columns", "match"),
        [
            (([0.0, 1.0], [1.0, 1.0], [0, 0], [0, 0], [0, 0], [0, 0]), r"t1 > t0, got \[1.0, 1.0\]"),
            (([0.0, 2.0], [1.0, 3.0], [0, 0], [0, 0], [0, 0], [0, 0]), "not contiguous: 1.0 -> 2.0"),
            (([0.0, 1.0], [1.0, 2.0], [0, 5], [0, 5], [0, 5], [0, 5]), "spatially"),
            (([], [], [], [], [], []), "at least one segment"),
            (([0.0], [1.0, 2.0], [0], [0], [0], [0]), "equal length"),
        ],
    )
    def test_from_columns_checks(self, columns, match):
        with pytest.raises(ValueError, match=match):
            Trajectory.from_columns(0, *columns)

    def test_contiguity_tolerances_match_scalar_isclose(self):
        # within the 1e-9 time and 1e-6 space tolerances: accepted
        Trajectory.from_columns(
            0, [0.0, 1.0 + 9e-10], [1.0, 2.0], [0, 5e-7], [0, 0], [0, 0], [0, 0]
        )
        with pytest.raises(ValueError, match="not contiguous"):
            Trajectory.from_columns(0, [0.0, 1.0 + 2e-9], [1.0, 2.0], [0, 0], [0, 0],
                                    [0, 0], [0, 0])
        # relative tolerance (1e-9) dominates far from the origin
        Trajectory.from_columns(0, [0.0, 1.0], [1.0, 2.0], [0, 1e4 + 5e-6], [0, 0],
                                [1e4, 0], [0, 0])


class TestContactTraceFromArrays:
    def test_equals_object_constructor(self):
        rows = [(5.0, 9.0, 3, 1), (1.0, 4.0, 0, 2), (1.0, 3.0, 2, 0), (5.0, 9.0, 0, 1)]
        built = ContactTrace([Contact(*r) for r in rows], 4, horizon=20.0, name="x")
        cols = [np.asarray(c) for c in zip(*rows, strict=True)]
        fast = ContactTrace.from_arrays(*cols, 4, horizon=20.0, name="x")
        assert fast == built
        assert fast._starts == built._starts
        for got, want in zip(fast.contact_arrays(), built.contact_arrays(), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
        assert fast.content_digest() == built.content_digest()

    def test_default_horizon_is_last_end(self):
        trace = ContactTrace.from_arrays(
            np.array([0.0]), np.array([7.5]), np.array([0]), np.array([1]), 2
        )
        assert trace.horizon == 7.5

    @pytest.mark.parametrize(
        ("cols", "kwargs", "match"),
        [
            (([1.0], [2.0], [1], [1]), {}, "self-contact"),
            (([2.0], [2.0], [0], [1]), {}, "start < end"),
            (([-1.0], [2.0], [0], [1]), {}, "start < end"),
            (([1.0], [2.0], [0], [5]), {}, "outside"),
            (([1.0], [2.0], [0], [1]), {"horizon": 1.5}, "precedes"),
            (([1.0], [2.0], [0.0], [1.0]), {}, "integers"),
        ],
    )
    def test_validation(self, cols, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ContactTrace.from_arrays(*(np.asarray(c) for c in cols), 3, **kwargs)

    def test_population_checked(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            ContactTrace.from_arrays(
                np.array([1.0]), np.array([2.0]), np.array([0]), np.array([1]), 1
            )


class TestContentDigest:
    def test_digest_tracks_content_not_name(self):
        rows = [(0.0, 2.0, 0, 1)]
        a = ContactTrace.from_tuples(rows, 3, horizon=10.0, name="a")
        assert a.content_digest() == ContactTrace.from_tuples(rows, 3, horizon=10.0).content_digest()
        for other in (
            ContactTrace.from_tuples(rows, 4, horizon=10.0, name="a"),
            ContactTrace.from_tuples(rows, 3, horizon=11.0, name="a"),
            ContactTrace.from_tuples([(0.0, 2.5, 0, 1)], 3, horizon=10.0, name="a"),
        ):
            assert other.content_digest() != a.content_digest()

    def test_analytic_model_digest_includes_meeting_rate(self):
        from repro.analytic.surrogate import make_analytic_model

        a = make_analytic_model(num_nodes=100, beta=1e-5, horizon=1e5, name="m")
        b = make_analytic_model(num_nodes=100, beta=1.0000001e-5, horizon=1e5, name="m")
        assert a.content_digest() != b.content_digest()
