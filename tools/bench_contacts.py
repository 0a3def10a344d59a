#!/usr/bin/env python3
"""Contact-extraction benchmark: vectorized vs scalar engine.

Generates subscriber-point RWP trajectory sets at increasing population
sizes (timed as ``trajectories_s``), times
:func:`repro.mobility.trajectory.contacts_from_trajectories` with the
vectorized ``fast`` engine and (up to a per-scale node cap) the scalar
``exact`` reference, verifies the two traces agree, and writes the
wall-times to a JSON report — the perf trajectory CI tracks over time.

Usage:
    PYTHONPATH=src python tools/bench_contacts.py --scale smoke
    PYTHONPATH=src python tools/bench_contacts.py --scale gate --verify
    PYTHONPATH=src python tools/bench_contacts.py --scale full --out bench.json

``--verify`` turns the run into an equivalence gate: every population is
extracted with both engines and the process exits non-zero if any contact
window diverges by more than ``--tolerance`` seconds (or the traces differ
structurally).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

try:
    from bench_common import report_envelope, write_report
except ImportError:  # loaded by file path (tests) rather than from tools/
    import sys as _sys
    from pathlib import Path as _Path

    _sys.path.insert(0, str(_Path(__file__).resolve().parent))
    from bench_common import report_envelope, write_report

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.rwp import RWPConfig, SubscriberPointRWP
from repro.mobility.trajectory import contacts_from_trajectories


@dataclass(frozen=True)
class BenchScale:
    """One benchmark tier: populations, trace horizon, scalar-engine cap."""

    nodes: tuple[int, ...]
    horizon: float
    exact_max: int  #: run the scalar reference only up to this population


SCALES: dict[str, BenchScale] = {
    # equivalence gate: exact on every population, modest sizes
    "gate": BenchScale(nodes=(12, 40, 80), horizon=40_000.0, exact_max=80),
    # CI perf job: scalar reference at every population (a full speedup
    # curve, dominated by the n=200 scalar run)
    "smoke": BenchScale(nodes=(25, 50, 100, 200), horizon=20_000.0, exact_max=200),
    "quick": BenchScale(nodes=(50, 100, 200, 400), horizon=40_000.0, exact_max=200),
    "full": BenchScale(
        nodes=(100, 200, 400, 800, 1600), horizon=40_000.0, exact_max=400
    ),
}


def trace_divergence(a: ContactTrace, b: ContactTrace) -> float:
    """Worst-case window divergence between two traces, in seconds.

    Returns ``inf`` when the traces differ structurally (population,
    contact count, or per-pair window counts).
    """
    if a.num_nodes != b.num_nodes or len(a) != len(b):
        return math.inf

    def by_pair(trace: ContactTrace) -> dict[tuple[int, int], list[Contact]]:
        out: dict[tuple[int, int], list[Contact]] = {}
        for c in trace:
            out.setdefault(c.pair, []).append(c)
        return out

    pa, pb = by_pair(a), by_pair(b)
    if pa.keys() != pb.keys():
        return math.inf
    worst = 0.0
    for pair, ca in pa.items():
        cb = pb[pair]
        if len(ca) != len(cb):
            return math.inf
        for x, y in zip(ca, cb, strict=True):
            worst = max(worst, abs(x.start - y.start), abs(x.end - y.end))
    return worst


def bench_population(
    num_nodes: int, horizon: float, seed: int, *, run_exact: bool
) -> dict[str, object]:
    """Extract one population's contacts with both engines and time them."""
    cfg = RWPConfig(num_nodes=num_nodes, horizon=horizon)
    t0 = time.perf_counter()
    trajectories = SubscriberPointRWP(cfg, seed=seed).generate_trajectories()
    trajectories_s = time.perf_counter() - t0
    segments = sum(len(t.segments) for t in trajectories)

    def run(engine: str) -> tuple[ContactTrace, float]:
        t0 = time.perf_counter()
        trace = contacts_from_trajectories(
            trajectories,
            cfg.comm_range,
            contact_cap=cfg.contact_cap,
            horizon=cfg.horizon,
            engine=engine,
        )
        return trace, time.perf_counter() - t0

    fast_trace, fast_s = run("fast")
    row: dict[str, object] = {
        "nodes": num_nodes,
        "segments": segments,
        "contacts": len(fast_trace),
        "trajectories_s": round(trajectories_s, 4),
        "fast_s": round(fast_s, 4),
        "exact_s": None,
        "speedup": None,
        "max_divergence_s": None,
    }
    if run_exact:
        exact_trace, exact_s = run("exact")
        row["exact_s"] = round(exact_s, 4)
        row["speedup"] = round(exact_s / fast_s, 2) if fast_s > 0 else math.inf
        row["max_divergence_s"] = trace_divergence(exact_trace, fast_trace)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", default="BENCH_contacts.json", help="JSON report path"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="equivalence gate: run the exact engine on every population "
        "and fail on divergence beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="max permitted window divergence in seconds (default: 1e-6)",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    print(
        f"contact-extraction benchmark: scale={args.scale} seed={args.seed} "
        f"horizon={scale.horizon:.0f}s nodes={list(scale.nodes)}"
    )
    rows = []
    failed = False
    for n in scale.nodes:
        run_exact = args.verify or n <= scale.exact_max
        row = bench_population(n, scale.horizon, args.seed, run_exact=run_exact)
        rows.append(row)
        div = row["max_divergence_s"]
        if run_exact and (div is None or not div <= args.tolerance):
            failed = True
        exact_s = f"{row['exact_s']:8.2f}s" if row["exact_s"] is not None else "       —"
        speedup = f"×{row['speedup']:.1f}" if row["speedup"] is not None else "—"
        div_txt = f"{div:.2e}s" if div is not None else "—"
        print(
            f"  n={n:>5}  segments={row['segments']:>7}  contacts={row['contacts']:>8}  "
            f"trajectories {row['trajectories_s']:6.2f}s  "
            f"fast {row['fast_s']:8.2f}s  exact {exact_s}  speedup {speedup:>6}  "
            f"divergence {div_txt}"
        )

    report = report_envelope(
        "contact_extraction",
        scale=args.scale,
        seed=args.seed,
        horizon_s=scale.horizon,
        mobility="rwp-subscriber",
        tolerance_s=args.tolerance,
        results=rows,
    )
    write_report(args.out, report)
    print(f"report written to {args.out}")

    if failed:
        print(
            f"ERROR: engines diverge beyond {args.tolerance:g}s "
            "(see max_divergence_s above)",
            file=sys.stderr,
        )
        return 1
    if args.verify:
        print(f"equivalence check: all windows within {args.tolerance:g}s ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
