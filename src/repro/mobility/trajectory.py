"""Piecewise-linear trajectories and exact geometric contact extraction.

A node's movement is a :class:`Trajectory`: a sequence of time segments, each
either a pause (endpoints equal) or a constant-velocity move. Contact
extraction between two trajectories is *exact*: on every overlapping segment
pair the squared inter-node distance is a quadratic in time, so the
below-range window is obtained from the quadratic's roots rather than by
sampling. This is both faster and free of the missed-short-contact artefacts
a sampling detector would have.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, overload

import numpy as np

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.fastcontact import extract_contacts_fast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import ArrayLike, NDArray

    FloatArray = NDArray[np.float64]


@dataclass(frozen=True, slots=True)
class Segment:
    """Constant-velocity movement (or pause) during ``[t0, t1]``."""

    t0: float
    t1: float
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.t1 > self.t0):
            raise ValueError(f"segment requires t1 > t0, got [{self.t0}, {self.t1}]")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def vx(self) -> float:
        return (self.x1 - self.x0) / (self.t1 - self.t0)

    @property
    def vy(self) -> float:
        return (self.y1 - self.y0) / (self.t1 - self.t0)

    @property
    def speed(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0) / (self.t1 - self.t0)

    def position(self, t: float) -> tuple[float, float]:
        """Position at time ``t`` (must lie within the segment)."""
        if not (self.t0 <= t <= self.t1):
            raise ValueError(f"t={t} outside segment [{self.t0}, {self.t1}]")
        s = (t - self.t0) / (self.t1 - self.t0)
        return (self.x0 + s * (self.x1 - self.x0), self.y0 + s * (self.y1 - self.y0))


def _isclose(
    a: FloatArray, b: FloatArray, *, rel_tol: float, abs_tol: float
) -> NDArray[np.bool_]:
    """Element-wise :func:`math.isclose`, with its exact semantics: equal
    values (infinities included) are close, any other infinity is not."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(b - a)
        within = (
            (diff <= np.abs(rel_tol * b))
            | (diff <= np.abs(rel_tol * a))
            | (diff <= abs_tol)
        )
        close: NDArray[np.bool_] = (a == b) | (within & np.isfinite(a) & np.isfinite(b))
    return close


class _SegmentView(Sequence[Segment]):
    """A trajectory's segments as :class:`Segment` objects.

    ``len()`` reads the columns; the objects themselves are built on the
    first element access (the scalar ``engine="exact"`` sweep and tests
    are their only consumers).
    """

    __slots__ = ("_columns", "_items")

    def __init__(
        self, columns: tuple[FloatArray, ...], items: list[Segment] | None
    ) -> None:
        self._columns = columns
        self._items = items

    def _list(self) -> list[Segment]:
        if self._items is None:
            t0, t1, x0, y0, x1, y1 = (c.tolist() for c in self._columns)
            self._items = [Segment(*row) for row in zip(t0, t1, x0, y0, x1, y1, strict=True)]
        return self._items

    def __len__(self) -> int:
        return int(self._columns[0].size)

    @overload
    def __getitem__(self, index: int) -> Segment: ...

    @overload
    def __getitem__(self, index: slice) -> list[Segment]: ...

    def __getitem__(self, index: int | slice) -> Segment | list[Segment]:
        return self._list()[index]

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._list())


class Trajectory:
    """A node's full movement: contiguous segments covering [start, end].

    Stored column-wise: ``t0, t1, x0, y0, x1, y1`` are read-only float64
    arrays with one entry per segment, which the vectorized extractor
    concatenates without touching a Python object. Build one from
    :class:`Segment` objects (``Trajectory(node, segments)``) or straight
    from columns (:meth:`from_columns`, what the RWP generators use); both
    enforce the same invariants — every segment has ``t1 > t0``, and
    consecutive segments meet in time (``abs_tol=1e-9``) and in space
    (``math.isclose`` with ``abs_tol=1e-6``).
    """

    __slots__ = ("node", "t0", "t1", "x0", "y0", "x1", "y1", "_view")

    def __init__(self, node: int, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        items = list(segments)
        columns = [
            [s.t0 for s in items],
            [s.t1 for s in items],
            [s.x0 for s in items],
            [s.y0 for s in items],
            [s.x1 for s in items],
            [s.y1 for s in items],
        ]
        self._install(node, columns, items)

    @classmethod
    def from_columns(
        cls,
        node: int,
        t0: ArrayLike,
        t1: ArrayLike,
        x0: ArrayLike,
        y0: ArrayLike,
        x1: ArrayLike,
        y1: ArrayLike,
    ) -> Trajectory:
        """Build a trajectory from per-segment columns (one entry per segment)."""
        traj = cls.__new__(cls)
        traj._install(node, [t0, t1, x0, y0, x1, y1], None)
        return traj

    def _install(
        self, node: int, columns: Sequence[ArrayLike], items: list[Segment] | None
    ) -> None:
        cols: tuple[FloatArray, ...] = tuple(np.array(c, dtype=np.float64) for c in columns)
        t0, t1, x0, y0, x1, y1 = cols
        if t0.ndim != 1 or any(c.shape != t0.shape for c in cols):
            raise ValueError("trajectory columns must be 1-D and of equal length")
        if t0.size == 0:
            raise ValueError("trajectory needs at least one segment")
        bad = np.flatnonzero(~(t1 > t0))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"segment requires t1 > t0, got [{float(t0[i])}, {float(t1[i])}]"
            )
        timed = _isclose(t1[:-1], t0[1:], rel_tol=0.0, abs_tol=1e-9)
        placed = _isclose(x1[:-1], x0[1:], rel_tol=1e-9, abs_tol=1e-6) & _isclose(
            y1[:-1], y0[1:], rel_tol=1e-9, abs_tol=1e-6
        )
        broken = np.flatnonzero(~(timed & placed))
        if broken.size:
            i = int(broken[0])
            if not timed[i]:
                raise ValueError(
                    f"segments not contiguous: {float(t1[i])} -> {float(t0[i + 1])}"
                )
            raise ValueError("segments not spatially contiguous")
        for c in cols:
            c.flags.writeable = False
        self.node = node
        self.t0, self.t1, self.x0, self.y0, self.x1, self.y1 = cols
        self._view = _SegmentView(cols, items)

    @property
    def segments(self) -> Sequence[Segment]:
        """The segments as :class:`Segment` objects (built on first access)."""
        return self._view

    @property
    def start_time(self) -> float:
        return float(self.t0[0])

    @property
    def end_time(self) -> float:
        return float(self.t1[-1])

    def position(self, t: float) -> tuple[float, float]:
        """Position at time ``t``, in the first segment ending at or after it."""
        if not (self.start_time <= t <= self.end_time):
            raise ValueError(f"t={t} outside trajectory span")
        i = int(np.searchsorted(self.t1, t, side="left"))
        return self.segments[i].position(t)

    def max_speed(self) -> float:
        speeds = np.hypot(self.x1 - self.x0, self.y1 - self.y0) / (self.t1 - self.t0)
        return float(speeds.max())


def _window_below_range(
    sa: Segment, sb: Segment, t0: float, t1: float, range_sq: float
) -> tuple[float, float] | None:
    """Sub-interval of [t0, t1] where |pos_a - pos_b| <= range.

    Both segments must cover [t0, t1]. Returns None if never in range.
    """
    ax, ay = sa.position(t0)
    bx, by = sb.position(t0)
    dx, dy = ax - bx, ay - by
    dvx, dvy = sa.vx - sb.vx, sa.vy - sb.vy
    # |d + dv*s|^2 <= range_sq  for s in [0, t1 - t0]
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - range_sq
    span = t1 - t0
    if a < 1e-15:  # no relative motion: distance constant
        return (t0, t1) if c <= 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    s_lo = (-b - sqrt_disc) / (2.0 * a)
    s_hi = (-b + sqrt_disc) / (2.0 * a)
    lo = max(s_lo, 0.0)
    hi = min(s_hi, span)
    if hi <= lo:
        return None
    return (t0 + lo, t0 + hi)


def _merge_windows(
    windows: list[tuple[float, float]], *, gap: float = 1e-9
) -> list[tuple[float, float]]:
    """Fuse touching/overlapping windows (within ``gap``)."""
    if not windows:
        return []
    windows.sort()
    merged = [windows[0]]
    for s, e in windows[1:]:
        ps, pe = merged[-1]
        if s <= pe + gap:
            merged[-1] = (ps, max(pe, e))
        else:
            merged.append((s, e))
    return merged


def pair_contact_windows(
    ta: Trajectory, tb: Trajectory, comm_range: float
) -> list[tuple[float, float]]:
    """All maximal time windows in which the two nodes are within range."""
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    range_sq = comm_range * comm_range
    windows: list[tuple[float, float]] = []
    i = j = 0
    segs_a, segs_b = ta.segments, tb.segments
    while i < len(segs_a) and j < len(segs_b):
        sa, sb = segs_a[i], segs_b[j]
        t0 = max(sa.t0, sb.t0)
        t1 = min(sa.t1, sb.t1)
        if t1 > t0:
            w = _window_below_range(sa, sb, t0, t1, range_sq)
            if w is not None:
                windows.append(w)
        # advance whichever segment ends first
        if sa.t1 <= sb.t1:
            i += 1
        else:
            j += 1
    return _merge_windows(windows)


#: Contact-extraction engines accepted by :func:`contacts_from_trajectories`.
CONTACT_ENGINES = ("fast", "exact")


def contacts_from_trajectories(
    trajectories: Sequence[Trajectory],
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
    engine: str = "fast",
) -> ContactTrace:
    """Extract the full contact trace from a set of trajectories.

    Args:
        comm_range: Radio range in metres.
        contact_cap: Truncate each encounter to at most this many seconds
            (the paper caps encounters at 500 s); None disables.
        min_duration: Discard encounters shorter than this.
        horizon: Trace horizon; defaults to the latest trajectory end.
        engine: ``"fast"`` (default) uses the vectorized broad/narrow-phase
            detector in :mod:`repro.mobility.fastcontact`; ``"exact"`` is
            the scalar per-pair reference sweep. Both produce bit-identical
            traces — ``"exact"`` exists as the independent oracle the fast
            path is validated against.

    Returns:
        A validated :class:`ContactTrace` over ``len(trajectories)`` nodes
        (node ids must be 0..n-1).
    """
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    if engine not in CONTACT_ENGINES:
        raise ValueError(
            f"unknown contact engine {engine!r}; available: {', '.join(CONTACT_ENGINES)}"
        )
    n = len(trajectories)
    ids = sorted(t.node for t in trajectories)
    if ids != list(range(n)):
        raise ValueError(f"trajectory node ids must be 0..{n - 1}, got {ids}")
    if engine == "fast":
        return extract_contacts_fast(
            trajectories,
            comm_range,
            contact_cap=contact_cap,
            min_duration=min_duration,
            horizon=horizon,
            name=name,
        )
    by_id = {t.node: t for t in trajectories}
    contacts: list[Contact] = []
    for i in range(n):
        for j in range(i + 1, n):
            for s, e in pair_contact_windows(by_id[i], by_id[j], comm_range):
                if contact_cap is not None:
                    e = min(e, s + contact_cap)
                if e - s >= min_duration:
                    contacts.append(Contact(start=s, end=e, a=i, b=j))
    if horizon is None:
        horizon = max(t.end_time for t in trajectories)
    horizon = max(horizon, max((c.end for c in contacts), default=0.0))
    return ContactTrace(contacts, n, horizon=horizon, name=name)
