"""The union-sweep neighbour join the broad phase used before its
cross-cell range lookups.

For each forward neighbour offset it sorts the union of the two cells'
pieces by quantized start, runs the same-group interval sweep over that
union, and keeps the pairs whose two pieces come from different cells.
The shipped :func:`repro.mobility.fastcontact._candidate_segment_pairs`
must return exactly this candidate set.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.fastcontact import (
    _FORWARD_OFFSETS,
    _TIME_QUANTS,
    _segmented_arange,
)


def _sweep_join(group_id, qlo, qhi):
    """Position pairs ``(i, j)``, ``i < j``, in one group with overlapping
    quantized intervals; arrays sorted by ``(group_id, qlo)``."""
    comp_lo = group_id * _TIME_QUANTS + qlo
    comp_hi = group_id * _TIME_QUANTS + qhi
    pos = np.arange(group_id.size, dtype=np.int64)
    cnt = np.searchsorted(comp_lo, comp_hi, side="right") - pos - 1
    if int(cnt.sum()) == 0:
        return (np.empty(0, dtype=np.int64),) * 2
    first = np.repeat(pos, cnt)
    second = np.repeat(pos + 1, cnt) + _segmented_arange(cnt)
    return first, second


def candidate_segment_pairs(node, t0, t1, x0, y0, x1, y1, comm_range, *, cell_size=None):
    nseg = t0.size
    if nseg < 2:
        return (np.empty(0, dtype=np.int64),) * 2
    tmin = float(t0.min())
    tmax = float(t1.max())
    span = max(tmax - tmin, 1e-9)
    extent = max(
        float(max(x0.max(), x1.max()) - min(x0.min(), x1.min())),
        float(max(y0.max(), y1.max()) - min(y0.min(), y1.min())),
        1e-9,
    )
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

    cx = np.floor(ax / cell).astype(np.int64)
    cy = np.floor(ay / cell).astype(np.int64)
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    nyp = int(cy.max()) + 2
    cellkey = cx * nyp + cy

    scale = float(_TIME_QUANTS - 1) / span
    qlo = np.clip(((pt0 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)
    qhi = np.clip(((pt1 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)

    order = np.lexsort((qlo, cellkey))
    ck = cellkey[order]
    ql = qlo[order]
    qh = qhi[order]
    pseg = piece_seg[order]

    new_group = np.empty(ck.size, dtype=bool)
    new_group[0] = True
    np.not_equal(ck[1:], ck[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, ck.size))
    uniq = ck[starts]

    parts_a, parts_b = [], []
    f_pos, s_pos = _sweep_join(group_id, ql, qh)
    if f_pos.size:
        parts_a.append(pseg[f_pos])
        parts_b.append(pseg[s_pos])

    for ox, oy in _FORWARD_OFFSETS:
        target = uniq + ox * nyp + oy
        idx = np.searchsorted(uniq, target)
        idx_c = np.minimum(idx, uniq.size - 1)
        valid = uniq[idx_c] == target
        if not valid.any():
            continue
        ga = np.flatnonzero(valid)
        gb = idx_c[ga]
        ca, cb = counts[ga], counts[gb]
        usz = ca + cb
        join_id = np.repeat(np.arange(ga.size, dtype=np.int64), usz)
        loc = _segmented_arange(usz)
        ca_rep = np.repeat(ca, usz)
        from_a = loc < ca_rep
        pos = np.where(
            from_a,
            np.repeat(starts[ga], usz) + loc,
            np.repeat(starts[gb], usz) + loc - ca_rep,
        )
        sub = np.lexsort((ql[pos], join_id))
        pos = pos[sub]
        side = from_a[sub]
        f_pos, s_pos = _sweep_join(join_id, ql[pos], qh[pos])
        if f_pos.size == 0:
            continue
        cross = side[f_pos] != side[s_pos]
        if cross.any():
            parts_a.append(pseg[pos[f_pos[cross]]])
            parts_b.append(pseg[pos[s_pos[cross]]])

    if not parts_a:
        return (np.empty(0, dtype=np.int64),) * 2
    a_seg = np.concatenate(parts_a)
    b_seg = np.concatenate(parts_b)
    keep = node[a_seg] != node[b_seg]
    a_seg, b_seg = a_seg[keep], b_seg[keep]
    pair_code = np.minimum(a_seg, b_seg) * np.int64(nseg) + np.maximum(a_seg, b_seg)
    pair_code = np.unique(pair_code)
    return pair_code // nseg, pair_code % nseg
