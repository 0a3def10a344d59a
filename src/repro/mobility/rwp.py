"""Random-Way-Point mobility models.

Two variants are provided, both emitting a
:class:`~repro.mobility.contact.ContactTrace` through the geometric
contact detector — the vectorized engine in
:mod:`repro.mobility.fastcontact` by default, or the scalar reference in
:mod:`repro.mobility.trajectory` via ``engine="exact"`` (identical
output):

* :class:`SubscriberPointRWP` — the paper's modified RWP (Section IV). Nodes
  hop between at most 100 fixed *subscriber points* inside a 1 km² area,
  pause < 1000 s at each, and travel with speed = distance / travel-time
  where travel time is at least 100 s, bounding speeds to (0, 10] m/s.
  This construction avoids the two classic-RWP pathologies the paper cites
  (Resta & Santi): nodes never decay to zero speed and keep moving along
  rendezvous points until the simulation horizon.
* :class:`ClassicRWP` — the textbook model (uniform waypoint in the free
  area, uniform speed, optional pause) for comparison studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import ContactTrace
from repro.mobility.trajectory import (
    CONTACT_ENGINES,
    Trajectory,
    contacts_from_trajectories,
)


@dataclass(frozen=True)
class RWPConfig:
    """Shared Random-Way-Point parameters (paper Section IV defaults).

    Attributes:
        num_nodes: Population size (paper: 12).
        horizon: Simulated period in seconds (paper: 600,000).
        area_side: Side of the square area in metres (paper: 1 km²).
        comm_range: Radio range in metres (paper surveys ranges ≤ 300 m;
            the 25 m default keeps the network sparse enough that relaying
            — not direct source→destination transfer — carries delivery,
            the regime all of the paper's RWP separations live in).
        contact_cap: Maximum encounter duration (paper: 500 s); None = off.
        num_subscriber_points: Fixed rendezvous points (< 100 per km²).
        max_pause: Maximum pause at a waypoint (paper: < 1000 s).
        min_travel_time: Minimum point-to-point travel time (paper: 100 s).
        max_travel_time: Maximum draw for the travel-time; the effective
            travel time is also floored so speed never exceeds ``max_speed``.
        max_speed: Speed ceiling in m/s (paper: 10 m/s).
        max_hop_distance: Subscriber points further apart than this are not
            chosen as consecutive waypoints (paper: < 1000 m).
        engine: Contact-extraction engine — ``"fast"`` (vectorized,
            default) or ``"exact"`` (scalar reference); both produce
            identical traces (see :mod:`repro.mobility.fastcontact`).
    """

    num_nodes: int = 12
    horizon: float = 600_000.0
    area_side: float = 1_000.0
    comm_range: float = 25.0
    contact_cap: float | None = 500.0
    num_subscriber_points: int = 96
    max_pause: float = 1_000.0
    min_travel_time: float = 100.0
    max_travel_time: float = 900.0
    max_speed: float = 10.0
    max_hop_distance: float = 1_000.0
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in CONTACT_ENGINES:
            raise ValueError(
                f"unknown contact engine {self.engine!r}; "
                f"available: {', '.join(CONTACT_ENGINES)}"
            )
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0 < self.num_subscriber_points <= 100):
            raise ValueError("subscriber points must be in (0, 100] per km²")
        if self.min_travel_time <= 0 or self.max_travel_time < self.min_travel_time:
            raise ValueError("need 0 < min_travel_time <= max_travel_time")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")


class SubscriberPointRWP:
    """The paper's subscriber-point RWP trace generator."""

    def __init__(self, config: RWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or RWPConfig()
        self.seed = seed

    def _place_points(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly scatter subscriber points over the area."""
        c = self.config
        return rng.uniform(0.0, c.area_side, size=(c.num_subscriber_points, 2))

    def _neighbour_lists(self, points: np.ndarray) -> list[list[int]]:
        """For each point, the candidate next-hop points within max distance."""
        c = self.config
        diff = points[:, None, :] - points[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        out: list[list[int]] = []
        for i in range(len(points)):
            mask = (dist[i] <= c.max_hop_distance) & (dist[i] > 0.0)
            cand = np.flatnonzero(mask).tolist()
            if not cand:  # isolated point: allow any other point
                cand = [j for j in range(len(points)) if j != i]
            out.append(cand)
        return out

    def _node_trajectory(
        self,
        node: int,
        points: np.ndarray,
        hop: list[list[float]],
        neighbours: list[list[int]],
        rng: np.random.Generator,
    ) -> Trajectory:
        """One node's walk, appended as plain floats to a flat row list.

        Each step draws, in order: the pause, the next hop, the travel
        time — that order defines the trace. ``lo + (hi - lo) *
        rng.random()`` is how :meth:`numpy.random.Generator.uniform`
        computes its draw, and ``cand[rng.integers(len(cand))]`` is how
        :meth:`~numpy.random.Generator.choice` picks, so both consume and
        return exactly what those calls would, without their overhead.
        """
        c = self.config
        horizon = c.horizon
        px, py = points[:, 0].tolist(), points[:, 1].tolist()
        random, integers = rng.random, rng.integers
        pause_span = c.max_pause - 0.0
        travel_lo = c.min_travel_time
        travel_span = c.max_travel_time - c.min_travel_time
        rows: list[float] = []  # t0, t1, x0, y0, x1, y1 per segment
        t = 0.0
        here = int(integers(len(points)))
        while t < horizon:
            # pause at the current subscriber point
            pause = 0.0 + pause_span * random()
            if pause > 0.0:
                end = min(t + pause, horizon)
                if end > t:
                    x, y = px[here], py[here]
                    rows += (t, end, x, y, x, y)
                    t = end
                if t >= horizon:
                    break
            # travel to a random neighbouring subscriber point
            cand = neighbours[here]
            nxt = cand[int(integers(len(cand)))]
            travel = travel_lo + travel_span * random()
            travel = max(travel, hop[here][nxt] / c.max_speed)  # speed <= max_speed
            end = min(t + travel, horizon)
            if end > t:
                x0, y0, x1, y1 = px[here], py[here], px[nxt], py[nxt]
                if end < t + travel:  # clipped at horizon: interpolate endpoint
                    frac = (end - t) / travel
                    x1 = x0 + frac * (x1 - x0)
                    y1 = y0 + frac * (y1 - y0)
                rows += (t, end, x0, y0, x1, y1)
                t = end
            here = nxt
        if not rows:  # degenerate horizon: stand still
            x, y = px[here], py[here]
            rows += (0.0, horizon, x, y, x, y)
        return Trajectory.from_columns(node, *np.array(rows).reshape(-1, 6).T)

    def generate(self) -> ContactTrace:
        """Produce the full contact trace for this configuration."""
        c = self.config
        return contacts_from_trajectories(
            self.generate_trajectories(),
            c.comm_range,
            contact_cap=c.contact_cap,
            horizon=c.horizon,
            name=f"rwp-subscriber(seed={self.seed})",
            engine=c.engine,
        )

    def generate_trajectories(self) -> list[Trajectory]:
        """Every node's trajectory (the input of contact extraction)."""
        c = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x5297])
        )
        points = self._place_points(rng)
        # hop[i][j] == np.hypot(*(points[j] - points[i])), element for element
        hop = np.hypot(
            points[None, :, 0] - points[:, None, 0], points[None, :, 1] - points[:, None, 1]
        ).tolist()
        neighbours = self._neighbour_lists(points)
        return [
            self._node_trajectory(i, points, hop, neighbours, rng)
            for i in range(c.num_nodes)
        ]


@dataclass(frozen=True)
class ClassicRWPConfig:
    """Parameters for the textbook RWP model.

    ``engine`` selects the contact-extraction path exactly as in
    :class:`RWPConfig`.
    """

    num_nodes: int = 12
    horizon: float = 600_000.0
    area_side: float = 1_000.0
    comm_range: float = 100.0
    contact_cap: float | None = 500.0
    min_speed: float = 0.5
    max_speed: float = 10.0
    max_pause: float = 120.0
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in CONTACT_ENGINES:
            raise ValueError(
                f"unknown contact engine {self.engine!r}; "
                f"available: {', '.join(CONTACT_ENGINES)}"
            )
        if self.min_speed <= 0:
            # min_speed == 0 reproduces the Resta & Santi decay pathology the
            # paper warns about; forbid it instead of silently degrading.
            raise ValueError("min_speed must be > 0 (zero speed stalls the model)")
        if self.max_speed < self.min_speed:
            raise ValueError("max_speed must be >= min_speed")
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")


class ClassicRWP:
    """Textbook Random-Way-Point over a free square area."""

    def __init__(self, config: ClassicRWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or ClassicRWPConfig()
        self.seed = seed

    def _node_trajectory(self, node: int, rng: np.random.Generator) -> Trajectory:
        """One node's walk; draws as :class:`SubscriberPointRWP` does
        (``lo + (hi - lo) * rng.random()`` is ``rng.uniform(lo, hi)``)."""
        c = self.config
        horizon = c.horizon
        random = rng.random
        side = c.area_side - 0.0
        speed_span = c.max_speed - c.min_speed
        pause_span = c.max_pause - 0.0
        rows: list[float] = []  # t0, t1, x0, y0, x1, y1 per segment
        t = 0.0
        x = 0.0 + side * random()
        y = 0.0 + side * random()
        while t < horizon:
            tx = 0.0 + side * random()
            ty = 0.0 + side * random()
            speed = c.min_speed + speed_span * random()
            dist = math.hypot(tx - x, ty - y)
            travel = dist / speed if dist > 0 else 0.0
            if travel > 0:
                end = min(t + travel, horizon)
                fx, fy = tx, ty
                if end < t + travel:
                    frac = (end - t) / travel
                    fx = x + frac * (tx - x)
                    fy = y + frac * (ty - y)
                rows += (t, end, x, y, fx, fy)
                t = end
                x, y = fx, fy
                if t >= horizon:
                    break
            pause = 0.0 + pause_span * random()
            if pause > 0:
                end = min(t + pause, horizon)
                if end > t:
                    rows += (t, end, x, y, x, y)
                    t = end
        if not rows:
            rows += (0.0, horizon, x, y, x, y)
        return Trajectory.from_columns(node, *np.array(rows).reshape(-1, 6).T)

    def generate(self) -> ContactTrace:
        """Produce the contact trace."""
        c = self.config
        return contacts_from_trajectories(
            self.generate_trajectories(),
            c.comm_range,
            contact_cap=c.contact_cap,
            horizon=c.horizon,
            name=f"rwp-classic(seed={self.seed})",
            engine=c.engine,
        )

    def generate_trajectories(self) -> list[Trajectory]:
        """Every node's trajectory (the input of contact extraction)."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0xC1A5])
        )
        return [self._node_trajectory(i, rng) for i in range(self.config.num_nodes)]
