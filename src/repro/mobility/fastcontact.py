"""Vectorized large-population contact extraction.

:func:`repro.mobility.trajectory.contacts_from_trajectories` historically
solved the below-range quadratic once per overlapping segment pair in pure
Python — an O(n²·segments) sweep that caps populations at a few dozen nodes.
This module is the scalable engine behind its default ``engine="fast"`` path.
Every stage works on whole columns; no stage builds a Python object per
segment, piece, candidate or window:

1. **Packing** — every trajectory already stores its segments as float64
   columns (:class:`~repro.mobility.trajectory.Trajectory`); packing
   concatenates them and tags each segment with its owner node.
2. **Broad phase** — segments are split into *pieces* of bounded
   displacement and hashed into a uniform spatial grid keyed on the
   piece's midpoint. Pieces are sorted once by (cell, quantized start
   time). Same-cell pairs whose time intervals overlap are read off one
   ``searchsorted`` per piece. For each of the four forward neighbour
   offsets, two ``searchsorted`` range lookups into the same sorted keys
   emit exactly the cross-cell pairs: piece *a* in a cell with every
   piece *b* of the neighbour cell whose start lies in ``[start_a,
   end_a]``, and *b* with every *a* whose start lies in ``(start_b,
   end_b]``. Together these are all overlapping cross pairs, each once.
   The join is conservative: two nodes within ``comm_range`` at time *t*
   always occupy pieces in cells at most one apart whose (quantized) time
   intervals overlap (see :func:`_candidate_segment_pairs`), so no contact
   can be lost. Far-apart or non-contemporaneous nodes never reach the
   quadratic solver.
3. **Narrow phase** — the below-range quadratic is evaluated for all
   surviving segment pairs in batched NumPy, replicating the scalar
   arithmetic of :func:`~repro.mobility.trajectory._window_below_range`
   operation-for-operation. Because IEEE-754 addition, multiplication,
   division and square root are correctly rounded in both scalar Python
   and NumPy float64, the produced windows are *bit-identical* to the
   ``engine="exact"`` reference, not merely close.
4. **Fold** — per-pair window merging, the encounter cap and the
   minimum-duration filter are array operations that reproduce the scalar
   fold of :func:`~repro.mobility.trajectory._merge_windows` exactly (see
   :func:`_fold_contacts`). The sorted contact columns go to
   :meth:`ContactTrace.from_arrays`, so the trace's columnar form is
   ready without a second pass over its :class:`Contact` objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.mobility.contact import ContactTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

    from repro.mobility.trajectory import Trajectory

    FloatArray = NDArray[np.float64]
    IntArray = NDArray[np.int64]

#: Time-axis quantization of the broad-phase interval sweep. Piece times are
#: ranked on a 2³¹-step grid over the trace span; the floor quantization is
#: applied to both interval ends, so an overlap can only be *over*-reported
#: (extra candidates, discarded exactly by the narrow phase), never missed.
_TIME_QUANTS = np.int64(1) << 31

#: Forward half-neighbourhood of a grid cell: joining every cell group with
#: itself and these four offsets visits each adjacent cell pair exactly once.
_FORWARD_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))

#: Candidate segment pairs per narrow-phase batch. The phase holds about
#: twenty float64 temporaries per pair, so batching bounds its memory.
_NARROW_BATCH = 1 << 18

#: Gap within which two windows of one pair fuse (the scalar fold's ``gap``).
_MERGE_GAP = 1e-9


def _empty_int() -> IntArray:
    return np.empty(0, dtype=np.int64)


def _pack_segments(
    trajectories: Sequence[Trajectory],
) -> tuple[IntArray, FloatArray, FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """Concatenate all trajectories' segment columns, plus each segment's node."""
    counts = [t.t0.size for t in trajectories]
    node = np.repeat(np.asarray([t.node for t in trajectories], dtype=np.int64), counts)
    t0 = np.concatenate([t.t0 for t in trajectories])
    t1 = np.concatenate([t.t1 for t in trajectories])
    x0 = np.concatenate([t.x0 for t in trajectories])
    y0 = np.concatenate([t.y0 for t in trajectories])
    x1 = np.concatenate([t.x1 for t in trajectories])
    y1 = np.concatenate([t.y1 for t in trajectories])
    return node, t0, t1, x0, y0, x1, y1


def _segmented_arange(counts: IntArray) -> IntArray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return _empty_int()
    offsets = np.cumsum(counts) - counts
    out: IntArray = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return out


def _pair_codes(
    owner: IntArray,
    lo: IntArray,
    hi: IntArray,
    pseg: IntArray,
    pnode: IntArray,
    nseg: int,
) -> IntArray:
    """Segment-pair codes ``min * nseg + max`` of the piece pairs
    ``(owner[k], p)`` for every ``p`` in ``[lo[k], hi[k])``; pairs of
    pieces of one node are dropped."""
    cnt = hi - lo
    first = np.repeat(owner, cnt)
    second = np.repeat(lo, cnt) + _segmented_arange(cnt)
    other = pnode[first] != pnode[second]
    a, b = pseg[first[other]], pseg[second[other]]
    codes: IntArray = np.minimum(a, b) * np.int64(nseg) + np.maximum(a, b)
    return codes


def _pieces(
    t0: FloatArray,
    t1: FloatArray,
    x0: FloatArray,
    y0: FloatArray,
    x1: FloatArray,
    y1: FloatArray,
    comm_range: float,
    cell_size: float | None,
) -> tuple[IntArray, IntArray, int, IntArray, IntArray]:
    """Split segments into pieces of displacement at most ``L``; return each
    piece's segment, grid cell key, the key's row pitch, and its quantized
    time interval ``[qlo, qhi]`` (see :func:`_candidate_segment_pairs`)."""
    nseg = t0.size
    tmin = float(t0.min())
    tmax = float(t1.max())
    span = max(tmax - tmin, 1e-9)
    extent = max(
        float(max(x0.max(), x1.max()) - min(x0.min(), x1.min())),
        float(max(y0.max(), y1.max()) - min(y0.min(), y1.min())),
        1e-9,
    )
    # Piece displacement cap L; grid pitch L + comm_range (any positive L is
    # correct — the knob trades pieces against candidate count).
    L = cell_size if cell_size is not None else max(2.0 * comm_range, extent / 256.0)
    cell = L + comm_range

    seg_len = np.hypot(x1 - x0, y1 - y0)
    pieces_per_seg = np.maximum(1, np.ceil(seg_len / L).astype(np.int64))
    piece_seg = np.repeat(np.arange(nseg, dtype=np.int64), pieces_per_seg)
    k = pieces_per_seg[piece_seg].astype(np.float64)
    piece_idx = _segmented_arange(pieces_per_seg)
    f0 = piece_idx / k
    f1 = (piece_idx + 1) / k
    st0, st1 = t0[piece_seg], t1[piece_seg]
    pt0 = st0 + f0 * (st1 - st0)
    pt1 = st0 + f1 * (st1 - st0)
    fm = (f0 + f1) * 0.5
    ax = x0[piece_seg] + fm * (x1[piece_seg] - x0[piece_seg])
    ay = y0[piece_seg] + fm * (y1[piece_seg] - y0[piece_seg])

    # anchor cells, +1 shift so neighbour offsets never wrap across rows
    cx = np.floor(ax / cell).astype(np.int64)
    cy = np.floor(ay / cell).astype(np.int64)
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    nyp = int(cy.max()) + 2
    cellkey = cx * nyp + cy

    # quantized piece intervals (floor on both ends: overlap-preserving)
    scale = float(_TIME_QUANTS - 1) / span
    qlo = np.clip(((pt0 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)
    qhi = np.clip(((pt1 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)
    return piece_seg, cellkey, nyp, qlo, qhi


def _candidate_segment_pairs(
    node: IntArray,
    t0: FloatArray,
    t1: FloatArray,
    x0: FloatArray,
    y0: FloatArray,
    x1: FloatArray,
    y1: FloatArray,
    comm_range: float,
    *,
    cell_size: float | None = None,
) -> tuple[IntArray, IntArray]:
    """Broad phase: segment index pairs that *might* come within range.

    Conservative by construction. Every piece has displacement at most
    ``L`` (the piece cap), so any of its points lies within ``L/2`` of its
    midpoint. If nodes A and B are within ``comm_range`` at time ``t``,
    the pieces containing ``t`` have midpoints at most
    ``L/2 + comm_range + L/2 = L + comm_range`` apart — which is the grid
    pitch — so their anchor cells differ by at most one per axis, their
    time intervals share ``t`` (floor quantization preserves interval
    overlap), and the same-cell or forward-neighbour join emits the pair.
    No in-range pair is ever pruned.

    Returns the distinct pairs ``(a, b)``, ``a < b``, of segments of
    different nodes, sorted by ``(a, b)``.
    """
    nseg = t0.size
    if nseg < 2:
        return _empty_int(), _empty_int()

    piece_seg, cellkey, nyp, qlo, qhi = _pieces(
        t0, t1, x0, y0, x1, y1, comm_range, cell_size
    )
    order = np.lexsort((qlo, cellkey))
    ck = cellkey[order]
    ql = qlo[order]
    qh = qhi[order]
    pseg = piece_seg[order]
    pnode = node[pseg]

    new_group = np.empty(ck.size, dtype=bool)
    new_group[0] = True
    np.not_equal(ck[1:], ck[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    uniq = ck[new_group]
    # one sorted key per piece: (group, quantized start) — every join below
    # is a searchsorted range over it
    base = group_id * _TIME_QUANTS
    keys = base + ql
    pos = np.arange(ck.size, dtype=np.int64)

    # same cell: the pieces after p whose start lies within p's interval
    hi = np.searchsorted(keys, base + qh, side="right")
    codes = [_pair_codes(pos, pos + 1, hi, pseg, pnode, nseg)]

    # forward-neighbour cells: both directions of the cross-cell overlap
    for ox, oy in _FORWARD_OFFSETS:
        target = uniq + ox * nyp + oy
        idx = np.minimum(np.searchsorted(uniq, target), uniq.size - 1)
        has = uniq[idx] == target
        if not has.any():
            continue
        # neighbour group of every piece whose own group has one (-1: none)
        nbr = np.where(has, idx, -1)[group_id]
        src_a = np.flatnonzero(nbr >= 0)
        nb_base = nbr[src_a] * _TIME_QUANTS
        # (a, b): b's start in [start_a, end_a]
        lo = np.searchsorted(keys, nb_base + ql[src_a], side="left")
        hi = np.searchsorted(keys, nb_base + qh[src_a], side="right")
        codes.append(_pair_codes(src_a, lo, hi, pseg, pnode, nseg))
        # (b, a): a's start in (start_b, end_b], b found from its own side
        back = np.full(uniq.size, -1, dtype=np.int64)
        back[idx[has]] = np.flatnonzero(has)
        prv = back[group_id]
        src_b = np.flatnonzero(prv >= 0)
        pv_base = prv[src_b] * _TIME_QUANTS
        lo = np.searchsorted(keys, pv_base + ql[src_b], side="right")
        hi = np.searchsorted(keys, pv_base + qh[src_b], side="right")
        codes.append(_pair_codes(src_b, lo, hi, pseg, pnode, nseg))

    # de-duplicate across pieces (sort + neighbour mask: np.unique's hash
    # path is far slower here)
    pair_code = np.concatenate(codes)
    pair_code.sort()
    if pair_code.size:
        first_seen = np.empty(pair_code.size, dtype=bool)
        first_seen[0] = True
        np.not_equal(pair_code[1:], pair_code[:-1], out=first_seen[1:])
        pair_code = pair_code[first_seen]
    return pair_code // nseg, pair_code % nseg


def _batched_windows(
    A: IntArray,
    B: IntArray,
    node: IntArray,
    t0: FloatArray,
    t1: FloatArray,
    x0: FloatArray,
    y0: FloatArray,
    x1: FloatArray,
    y1: FloatArray,
    range_sq: float,
) -> tuple[FloatArray, FloatArray, IntArray, IntArray]:
    """Narrow phase over all candidates, :data:`_NARROW_BATCH` pairs at a
    time (each pair's window is computed independently of the others)."""
    batches = [
        _window_batch(
            A[i : i + _NARROW_BATCH], B[i : i + _NARROW_BATCH],
            node, t0, t1, x0, y0, x1, y1, range_sq,
        )
        for i in range(0, A.size, _NARROW_BATCH)
    ]
    if not batches:
        return _window_batch(A, B, node, t0, t1, x0, y0, x1, y1, range_sq)
    starts, ends, na, nb_ = zip(*batches, strict=True)
    return (
        np.concatenate(starts),
        np.concatenate(ends),
        np.concatenate(na),
        np.concatenate(nb_),
    )


def _window_batch(
    A: IntArray,
    B: IntArray,
    node: IntArray,
    t0: FloatArray,
    t1: FloatArray,
    x0: FloatArray,
    y0: FloatArray,
    x1: FloatArray,
    y1: FloatArray,
    range_sq: float,
) -> tuple[FloatArray, FloatArray, IntArray, IntArray]:
    """Below-range windows for one batch of candidate segment pairs.

    Replicates :func:`repro.mobility.trajectory._window_below_range`
    operation-for-operation in float64 so results are bit-identical to the
    scalar reference. Returns ``(start, end, node_a, node_b)`` arrays with
    ``node_a < node_b``.
    """
    empty = (
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
        _empty_int(),
        _empty_int(),
    )
    ov0 = np.maximum(t0[A], t0[B])
    ov1 = np.minimum(t1[A], t1[B])
    m = ov1 > ov0
    A, B, ov0, ov1 = A[m], B[m], ov0[m], ov1[m]
    if A.size == 0:
        return empty

    # positions at the overlap start (Segment.position arithmetic)
    sa = (ov0 - t0[A]) / (t1[A] - t0[A])
    ax = x0[A] + sa * (x1[A] - x0[A])
    ay = y0[A] + sa * (y1[A] - y0[A])
    sb = (ov0 - t0[B]) / (t1[B] - t0[B])
    bx = x0[B] + sb * (x1[B] - x0[B])
    by = y0[B] + sb * (y1[B] - y0[B])
    # relative velocity (Segment.vx / .vy arithmetic)
    dvx = (x1[A] - x0[A]) / (t1[A] - t0[A]) - (x1[B] - x0[B]) / (t1[B] - t0[B])
    dvy = (y1[A] - y0[A]) / (t1[A] - t0[A]) - (y1[B] - y0[B]) / (t1[B] - t0[B])
    dx = ax - bx
    dy = ay - by

    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - range_sq
    span = ov1 - ov0

    const = a < 1e-15  # no relative motion: distance constant
    starts_parts: list[FloatArray] = []
    ends_parts: list[FloatArray] = []
    na_parts: list[IntArray] = []
    nb_parts: list[IntArray] = []

    mc = const & (c <= 0.0)
    if mc.any():
        starts_parts.append(ov0[mc])
        ends_parts.append(ov1[mc])
        na_parts.append(node[A[mc]])
        nb_parts.append(node[B[mc]])

    mq = ~const
    if mq.any():
        aq, bq, cq = a[mq], b[mq], c[mq]
        disc = bq * bq - 4.0 * aq * cq
        pos = disc >= 0.0
        if pos.any():
            aq, bq = aq[pos], bq[pos]
            sqrt_disc = np.sqrt(disc[pos])
            s_lo = (-bq - sqrt_disc) / (2.0 * aq)
            s_hi = (-bq + sqrt_disc) / (2.0 * aq)
            lo = np.maximum(s_lo, 0.0)
            hi = np.minimum(s_hi, span[mq][pos])
            ok = hi > lo
            if ok.any():
                base = ov0[mq][pos][ok]
                starts_parts.append(base + lo[ok])
                ends_parts.append(base + hi[ok])
                na_parts.append(node[A[mq][pos][ok]])
                nb_parts.append(node[B[mq][pos][ok]])

    if not starts_parts:
        return empty
    starts = np.concatenate(starts_parts)
    ends = np.concatenate(ends_parts)
    na = np.concatenate(na_parts)
    nb_ = np.concatenate(nb_parts)
    swap = na > nb_
    na, nb_ = np.where(swap, nb_, na), np.where(swap, na, nb_)
    return starts, ends, na, nb_


def _fold_contacts(
    starts: FloatArray,
    ends: FloatArray,
    na: IntArray,
    nb_: IntArray,
    *,
    contact_cap: float | None,
    min_duration: float,
) -> tuple[FloatArray, FloatArray, IntArray, IntArray]:
    """Merge per-pair windows; return contact columns in (start, end, a, b) order.

    The scalar fold (:func:`~repro.mobility.trajectory._merge_windows`)
    walks one pair's windows in (start, end) order and opens a new contact
    whenever ``start > current_end + gap``, where ``current_end`` is the
    largest end seen so far in the contact. Within a pair that running
    value is the prefix maximum of all earlier ends: a new contact opens
    only past every earlier end. So a window opens a contact exactly when
    it is its pair's first or ``start > prefix_max(previous ends) + gap``.
    The prefix maximum is taken over integer ranks of the ends, offset by
    pair, so it is an exact maximum of the float ends within each pair
    (no float offset ever enters the comparison). Each contact's end is
    the maximum end of its windows; the cap and the minimum-duration
    filter then apply per contact, as in the scalar path.
    """
    if starts.size == 0:
        return starts, ends, na, nb_
    order = np.lexsort((ends, starts, nb_, na))
    s, e, a, b = starts[order], ends[order], na[order], nb_[order]
    n = s.size

    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    pair_id = np.cumsum(new_pair) - 1

    by_end = np.argsort(e, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_end] = np.arange(n, dtype=np.int64)
    # pair ids increase along the array, so a running max of the offset
    # ranks never carries a value across a pair boundary
    prefix_max = e[by_end[np.maximum.accumulate(pair_id * n + rank) - pair_id * n]]

    opens = new_pair.copy()
    opens[1:] |= s[1:] > prefix_max[:-1] + _MERGE_GAP
    first = np.flatnonzero(opens)
    c_s = s[first]
    c_e = np.maximum.reduceat(e, first)
    c_a, c_b = a[first], b[first]
    if contact_cap is not None:
        c_e = np.minimum(c_e, c_s + contact_cap)
    keep = c_e - c_s >= min_duration
    c_s, c_e, c_a, c_b = c_s[keep], c_e[keep], c_a[keep], c_b[keep]
    final = np.lexsort((c_b, c_a, c_e, c_s))
    return c_s[final], c_e[final], c_a[final], c_b[final]


def extract_contacts_fast(
    trajectories: Sequence[Trajectory],
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
    cell_size: float | None = None,
) -> ContactTrace:
    """Vectorized equivalent of the scalar ``engine="exact"`` extraction.

    Prefer calling
    :func:`repro.mobility.trajectory.contacts_from_trajectories` (which
    validates inputs and dispatches here by default); this entry point
    exposes the broad-phase tuning knob for benchmarks.

    Args:
        cell_size: Override the broad-phase piece displacement cap in
            metres (grid pitch is ``cell_size + comm_range``; default
            ``max(2 * comm_range, extent / 256)``). Any positive value
            yields the same contacts — the knob trades hash table size
            against candidate pair count, never correctness.
    """
    n = len(trajectories)
    node, t0, t1, x0, y0, x1, y1 = _pack_segments(trajectories)
    A, B = _candidate_segment_pairs(
        node, t0, t1, x0, y0, x1, y1, comm_range, cell_size=cell_size
    )
    windows = _batched_windows(A, B, node, t0, t1, x0, y0, x1, y1, comm_range * comm_range)
    starts, ends, a, b = _fold_contacts(
        *windows, contact_cap=contact_cap, min_duration=min_duration
    )
    if horizon is None:
        horizon = max(t.end_time for t in trajectories)
    if ends.size:
        horizon = max(horizon, float(ends.max()))
    return ContactTrace.from_arrays(starts, ends, a, b, n, horizon=horizon, name=name)
