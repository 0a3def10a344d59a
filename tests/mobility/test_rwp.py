"""Random-Way-Point generators."""

import pytest

from repro.mobility.rwp import ClassicRWP, ClassicRWPConfig, RWPConfig, SubscriberPointRWP


@pytest.fixture(scope="module")
def quick_cfg():
    return RWPConfig(num_nodes=6, horizon=40_000.0)


@pytest.fixture(scope="module")
def quick_trace(quick_cfg):
    return SubscriberPointRWP(quick_cfg, seed=3).generate()


class TestRWPConfigValidation:
    def test_defaults_valid(self):
        RWPConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"horizon": 0.0},
            {"num_subscriber_points": 0},
            {"num_subscriber_points": 101},
            {"min_travel_time": 0.0},
            {"max_travel_time": 10.0, "min_travel_time": 20.0},
            {"max_speed": 0.0},
            {"comm_range": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RWPConfig(**kwargs)


class TestSubscriberPointRWP:
    def test_deterministic_in_seed(self, quick_cfg):
        a = SubscriberPointRWP(quick_cfg, seed=3).generate()
        b = SubscriberPointRWP(quick_cfg, seed=3).generate()
        assert [(c.start, c.end, c.a, c.b) for c in a] == [
            (c.start, c.end, c.a, c.b) for c in b
        ]

    def test_different_seeds_differ(self, quick_cfg, quick_trace):
        other = SubscriberPointRWP(quick_cfg, seed=4).generate()
        assert [(c.start, c.a, c.b) for c in other] != [
            (c.start, c.a, c.b) for c in quick_trace
        ]

    def test_population_and_horizon(self, quick_trace, quick_cfg):
        assert quick_trace.num_nodes == quick_cfg.num_nodes
        assert quick_trace.horizon == quick_cfg.horizon
        assert all(c.end <= quick_cfg.horizon for c in quick_trace)

    def test_contact_cap_respected(self, quick_trace, quick_cfg):
        assert all(c.duration <= quick_cfg.contact_cap + 1e-9 for c in quick_trace)

    def test_produces_contacts(self, quick_trace):
        assert len(quick_trace) > 0

    def test_trajectories_respect_speed_and_area(self, quick_cfg):
        trajs = SubscriberPointRWP(quick_cfg, seed=3).generate_trajectories()
        assert len(trajs) == quick_cfg.num_nodes
        for t in trajs:
            assert t.max_speed() <= quick_cfg.max_speed + 1e-9
            assert t.start_time == 0.0
            assert t.end_time == pytest.approx(quick_cfg.horizon)
            for seg in t.segments:
                for x, y in ((seg.x0, seg.y0), (seg.x1, seg.y1)):
                    assert -1e-6 <= x <= quick_cfg.area_side + 1e-6
                    assert -1e-6 <= y <= quick_cfg.area_side + 1e-6

    def test_pauses_bounded(self, quick_cfg):
        trajs = SubscriberPointRWP(quick_cfg, seed=3).generate_trajectories()
        for t in trajs:
            for seg in t.segments:
                if seg.x0 == seg.x1 and seg.y0 == seg.y1:  # pause
                    assert seg.duration <= quick_cfg.max_pause + 1e-9


class TestClassicRWP:
    def test_zero_min_speed_rejected(self):
        with pytest.raises(ValueError, match="min_speed"):
            ClassicRWPConfig(min_speed=0.0)

    def test_speed_order_validated(self):
        with pytest.raises(ValueError):
            ClassicRWPConfig(min_speed=5.0, max_speed=1.0)

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"num_nodes": 1}, "num_nodes"),
            ({"horizon": 0.0}, "horizon"),
            ({"horizon": -5.0}, "horizon"),
            ({"comm_range": 0.0}, "comm_range"),
            ({"comm_range": -1.0}, "comm_range"),
        ],
    )
    def test_rejects_bad_values_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClassicRWPConfig(**kwargs)

    def test_generates_deterministically(self):
        cfg = ClassicRWPConfig(num_nodes=5, horizon=20_000.0)
        a = ClassicRWP(cfg, seed=1).generate()
        b = ClassicRWP(cfg, seed=1).generate()
        assert len(a) == len(b)
        assert a.num_nodes == 5
        assert a.horizon == 20_000.0
        assert all(c.end <= 20_000.0 for c in a)
