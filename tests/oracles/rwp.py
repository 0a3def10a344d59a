"""Per-step Random-Way-Point generators that build one :class:`Segment` per step.

These are the generators :mod:`repro.mobility.rwp` ran before it emitted
trajectory columns directly: every draw goes through
``Generator.uniform`` / ``Generator.choice`` and every step allocates a
:class:`~repro.mobility.trajectory.Segment`. The columnar generators must
reproduce their trajectories bit for bit, since the draw order defines
the trace.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.rwp import ClassicRWPConfig, RWPConfig
from repro.mobility.trajectory import Segment, Trajectory


def _neighbour_lists(c: RWPConfig, points: np.ndarray) -> list[np.ndarray]:
    diff = points[:, None, :] - points[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    out: list[np.ndarray] = []
    for i in range(len(points)):
        mask = (dist[i] <= c.max_hop_distance) & (dist[i] > 0.0)
        cand = np.flatnonzero(mask)
        if cand.size == 0:  # isolated point: allow any other point
            cand = np.array([j for j in range(len(points)) if j != i])
        out.append(cand)
    return out


def _subscriber_node(
    c: RWPConfig,
    node: int,
    points: np.ndarray,
    neighbours: list[np.ndarray],
    rng: np.random.Generator,
) -> Trajectory:
    segments: list[Segment] = []
    t = 0.0
    here = int(rng.integers(len(points)))
    while t < c.horizon:
        pause = float(rng.uniform(0.0, c.max_pause))
        if pause > 0.0:
            end = min(t + pause, c.horizon)
            if end > t:
                x, y = points[here]
                segments.append(Segment(t, end, x, y, x, y))
                t = end
            if t >= c.horizon:
                break
        nxt = int(rng.choice(neighbours[here]))
        dist = float(np.hypot(*(points[nxt] - points[here])))
        travel = float(rng.uniform(c.min_travel_time, c.max_travel_time))
        travel = max(travel, dist / c.max_speed)
        end = min(t + travel, c.horizon)
        if end > t:
            x0, y0 = points[here]
            x1, y1 = points[nxt]
            if end < t + travel:
                frac = (end - t) / travel
                x1 = x0 + frac * (x1 - x0)
                y1 = y0 + frac * (y1 - y0)
            segments.append(Segment(t, end, x0, y0, float(x1), float(y1)))
            t = end
        here = nxt
    if not segments:
        x, y = points[here]
        segments.append(Segment(0.0, c.horizon, x, y, x, y))
    return Trajectory(node, segments)


def subscriber_trajectories(c: RWPConfig, seed: int) -> list[Trajectory]:
    """What ``SubscriberPointRWP(c, seed=seed).generate_trajectories()`` returns."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x5297]))
    points = rng.uniform(0.0, c.area_side, size=(c.num_subscriber_points, 2))
    neighbours = _neighbour_lists(c, points)
    return [_subscriber_node(c, i, points, neighbours, rng) for i in range(c.num_nodes)]


def _classic_node(c: ClassicRWPConfig, node: int, rng: np.random.Generator) -> Trajectory:
    segments: list[Segment] = []
    t = 0.0
    x, y = rng.uniform(0.0, c.area_side, size=2)
    while t < c.horizon:
        tx, ty = rng.uniform(0.0, c.area_side, size=2)
        speed = float(rng.uniform(c.min_speed, c.max_speed))
        dist = math.hypot(tx - x, ty - y)
        travel = dist / speed if dist > 0 else 0.0
        if travel > 0:
            end = min(t + travel, c.horizon)
            fx, fy = tx, ty
            if end < t + travel:
                frac = (end - t) / travel
                fx = x + frac * (tx - x)
                fy = y + frac * (ty - y)
            segments.append(Segment(t, end, float(x), float(y), float(fx), float(fy)))
            t = end
            x, y = fx, fy
            if t >= c.horizon:
                break
        pause = float(rng.uniform(0.0, c.max_pause))
        if pause > 0:
            end = min(t + pause, c.horizon)
            if end > t:
                segments.append(Segment(t, end, float(x), float(y), float(x), float(y)))
                t = end
    if not segments:
        segments.append(Segment(0.0, c.horizon, float(x), float(y), float(x), float(y)))
    return Trajectory(node, segments)


def classic_trajectories(c: ClassicRWPConfig, seed: int) -> list[Trajectory]:
    """The trajectories ``ClassicRWP(c, seed=seed).generate()`` extracts from."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xC1A5]))
    return [_classic_node(c, i, rng) for i in range(c.num_nodes)]
