"""Run one benchmark workload as full sweep campaigns and report its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campus-grid --seed 0 --seconds 30 --trace 0

The campaign is repeated, untraced, until ``--seconds`` are used (at least
twice), and the end-to-end metrics are the medians over those campaigns.
With ``--trace 1`` one more campaign runs right after them with spans
recorded around every layer's calls, and the per-layer metrics come from it
instead. Every run checks its outputs: the runs-CSV digest is identical
across campaigns and equal to the pinned one at the pinned seed, a seeded
sample of SoA-tier cells re-run with ``kernel="event"`` gives identical
``RunResult`` reprs, and resuming the completed journal restores identical
runs without re-executing anything. The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT_DIR = Path(__file__).resolve().parents[1]
#: Where runs write their scratch campaign directories, spans and breakdowns.
OUT_DIR = ROOT_DIR / ".perfbench_out"
#: Pinned runs-CSV digests (``{"seed": n, "runs_csv_sha256": {workload: hex}}``).
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Campaigns per run, at least, so set-up and determinism are seen twice.
MIN_CAMPAIGNS = 2

END_TO_END = {
    "campaign_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cell_success_ratio": "ratio",
}

PROTOCOL_KEYS = ("pure", "pq", "pq_anti", "ttl", "ec", "immunity")
TIERS = ("sweepkernel", "simulation")
FAULT_COUNTERS = (
    "crashes",
    "missed_contacts",
    "dropped_contacts",
    "interrupted_transfers",
    "failed_transfers",
)
#: Layers that self time is charged to; ``unattributed`` is the campaign
#: root's own time, covered by no layer span.
LAYERS = (
    "scenarios",
    "mobility",
    "sweep",
    "checkpoint",
    "executors",
    "sweepkernel",
    "simulation",
    "results",
    "io",
    "unattributed",
)

PER_LAYER: dict[str, str] = {
    "workload.nodes": "count",
    "cell_failure_ratio": "ratio",
    "mobility.build_s": "s",
    "mobility.trajectories_s": "s",
    "mobility.segments": "count",
    "mobility.extract_s": "s",
    "mobility.contacts": "count",
    "mobility.arrays_s": "s",
    "mobility.extract_peak_mb": "MB",
    "mobility.trace_mb": "MB",
    "mobility.zero_transfer_frac": "ratio",
    "sweep.build_cells_s": "s",
    "sweep.fingerprint_s": "s",
    "executors.cells": "count",
    "executors.failed": "count",
    "executors.overhead_s": "s",
    **{
        f"{tier}.{name}": unit
        for tier in TIERS
        for name, unit in (
            ("cells", "count"),
            ("busy_s", "s"),
            ("cell_ms.p50", "ms"),
            ("cell_ms.p90", "ms"),
        )
    },
    **{f"protocol.{key}.busy_s": "s" for key in PROTOCOL_KEYS},
    **{f"faults.{name}": "count" for name in FAULT_COUNTERS},
    "results.aggregate_s": "s",
    "io.export_s": "s",
    "io.bytes": "bytes",
    "checkpoint.records": "count",
    "checkpoint.record_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.resume_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "gc.pause_s": "s",
    "tracing.campaign_s": "s",
    "tracing.overhead_s": "s",
    "tracing.span_cost_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one campaign as described by this job file (see run_job)
    parser.add_argument("--job", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT_DIR / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no library source under {ROOT_DIR / 'src'}; run the benchmark "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT_DIR / "src"), str(ROOT_DIR)]
    from perfbench.pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.job is not None:
        job = json.loads(args.job.read_text(encoding="utf-8"))
        out = campaign_job(args.workload, args.seed, job.pop("work"), **job)
        args.job.with_suffix(".out.json").write_text(json.dumps(out), encoding="utf-8")
        return 0
    # a terminated run unwinds, so that run_job kills and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def measure(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    """Run the timed campaigns, the checks and (``--trace 1``) the traced
    campaign, each in a fresh process; print the report, return the result."""
    jobs: list[dict[str, Any]] = []
    walls: list[float] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        jobs.append(
            run_job(args.workload, args.seed, work / f"campaign{len(jobs)}", checks=not jobs)
        )
        walls.append(time.perf_counter() - start)
        # stop where one more campaign would end further past --seconds
        # than stopping now ends short of it
        ends = time.perf_counter() - t0 + statistics.median(walls) / 2
        if len(jobs) >= MIN_CAMPAIGNS and ends > args.seconds:
            break
    first = jobs[0]
    props = first["properties"]
    print(
        f"workload {args.workload} seed={args.seed}: nodes={props['nodes']} "
        f"contacts={props['contacts']} zero_transfer_frac={props['zero_transfer_frac']:.4f} "
        f"cells={props['cells']} (sweepkernel={props['sweepkernel']} "
        f"simulation={props['simulation']})"
    )

    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    pinned = pins["runs_csv_sha256"].get(args.workload) if args.seed == pins["seed"] else None
    digests = {job["digest"] for job in jobs}
    digest = first["digest"]
    digest_ok = len(digests) == 1 and pinned in (None, digest)
    sampled, mismatched = first["kernel_sample"]
    print(f"runs_csv_sha256={digest} (campaigns={len(jobs)})")
    print(
        f"check digest: {'ok' if digest_ok else 'MISMATCH'} "
        f"({'pinned ' + pinned if pinned else 'not pinned at this seed'}; "
        f"{len(digests)} distinct digest(s) across campaigns)"
    )
    print(
        f"check kernel identity: {sampled - mismatched}/{sampled} SoA cells "
        "identical on event"
    )
    print(f"check resume identity: {'ok' if first['resume_ok'] else 'MISMATCH'}")
    correct = digest_ok and first["resume_ok"] and mismatched == 0

    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    end_to_end = {
        name: statistics.median(job[name] for job in jobs)
        for name in ("campaign_s", "setup_s", "cells_per_s", "peak_rss_mb")
    }
    end_to_end["cell_success_ratio"] = (attempted - failed) / attempted
    for name, value in end_to_end.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(
        "per campaign: "
        + "; ".join(
            f"campaign_s={j['campaign_s']:.4g} setup_s={j['setup_s']:.4g} "
            f"cells_per_s={j['cells_per_s']:.4g} peak_rss_mb={j['peak_rss_mb']:.4g}"
            for j in jobs
        )
    )
    if not args.trace:
        metrics = {n: (v, END_TO_END[n]) for n, v in end_to_end.items()}
    else:
        # back to back with the last untraced campaign, so that the overhead
        # compares two campaigns run in the same host state
        traced = run_job(
            args.workload, args.seed, work / "traced", traced_against=jobs[-1]["campaign_s"]
        )
        traced_digest_ok = traced["digest"] == digest
        print(
            f"check traced campaign: digest {'ok' if traced_digest_ok else 'MISMATCH'}, "
            f"resume {'ok' if traced['resume_ok'] else 'MISMATCH'}"
        )
        correct = correct and traced_digest_ok and traced["resume_ok"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = traced["per_layer"]
        print(write_breakdown(args, values, jobs[-1]["campaign_s"]))
        for tier in TIERS:
            n = int(values[f"{tier}.cells"])
            print(f"{tier}.cell_ms: {n} cells; {tail_note(n)}")
        metrics = {n: (values[n], PER_LAYER[n]) for n in PER_LAYER}
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_job(workload: str, seed: int, work: Path, **kwargs: Any) -> dict[str, Any]:
    """:func:`campaign_job` in a fresh Python process, waited for.

    A plain child process, not a ``multiprocessing`` pool: a spawn pool
    starts a resource-tracker process that outlives the run. If this process
    is interrupted, ``subprocess.run`` kills the child and waits for it.
    """
    work.parent.mkdir(parents=True, exist_ok=True)
    job = work.parent / f"{work.name}.job.json"
    job.write_text(json.dumps({"work": str(work), **kwargs}), encoding="utf-8")
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    subprocess.run(command + ["--seed", str(seed), "--job", str(job)], check=True)
    return json.loads(job.with_suffix(".out.json").read_text(encoding="utf-8"))


def campaign_job(
    workload: str,
    seed: int,
    work: str,
    *,
    checks: bool = False,
    traced_against: float | None = None,
) -> dict[str, Any]:
    """Run one campaign of ``workload`` and return its figures.

    Each campaign runs in a process of its own, as ``repro run-scenario``
    does: repeated sweeps in one process grow its heap and slow every full
    garbage collection, so later campaigns would read slower than earlier
    ones. Nothing runs before the campaign, so its first-call costs count,
    as they do for a user. With ``checks`` the correctness checks and the
    workload properties follow the timed campaign. With ``traced_against``
    (the untraced ``campaign_s`` it is compared with) the campaign is traced
    instead, and its per-layer metrics are returned.
    """
    from perfbench import pipeline
    from perfbench.spans import Tracer
    from repro.core.sweep import build_cells

    root = Path(work)
    root.mkdir(parents=True)
    spec_path = root / f"{workload}.json"
    spec_path.write_text(json.dumps(pipeline.workload_spec(workload, seed)), encoding="utf-8")
    tracer = Tracer(f"{workload}-seed{seed}", enabled=traced_against is not None)
    with tracer.gc_pauses("gc.pause_s"):
        campaign = pipeline.run_campaign(spec_path, root / "out", root / "ckpt", tracer=tracer)
    out: dict[str, Any] = {
        "campaign_s": campaign.campaign_s,
        "setup_s": campaign.setup_s,
        "cells_per_s": len(campaign.result.runs) / campaign.sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": pipeline.sha256(campaign.runs_csv),
        "attempted": campaign.attempted,
        "failed": campaign.failed,
    }
    if not (checks or traced_against is not None):
        return out
    spec, trace = campaign.spec, campaign.trace
    cells = build_cells(trace, spec.build_protocols(), spec.sweep_config())
    tiers = pipeline.cell_tiers(cells)
    zt_frac = pipeline.zero_transfer_frac(spec, trace)
    if checks:
        out["properties"] = {
            "nodes": trace.num_nodes,
            "contacts": len(trace),
            "zero_transfer_frac": zt_frac,
            "cells": len(cells),
            **{t: sum(tiers[c.protocol.label] == t for c in cells) for t in TIERS},
        }
        out["resume_ok"] = pipeline.resume_identical(campaign)
        out["kernel_sample"] = pipeline.kernel_identity(campaign, tiers, seed)
    if traced_against is not None:
        pipeline.name_cell_spans(tracer, tiers)
        checkpoint_bytes = pipeline.dir_bytes(campaign.checkpoint_dir)
        out["resume_ok"] = pipeline.resume_identical(campaign, tracer=tracer)
        tracer.counters.update(pipeline.trace_memory(spec_path))
        out["per_layer"] = layer_metrics(
            tracer, campaign, zt_frac, traced_against, checkpoint_bytes
        )
        tracer.write(OUT_DIR / f"spans_{workload}_seed{seed}.json")
    return out


def layer_metrics(tracer, traced, zt_frac: float, untraced_s: float, checkpoint_bytes: int):
    """Every :data:`PER_LAYER` metric from one traced campaign.

    ``tracing.overhead_s`` is the traced ``campaign_s`` minus ``untraced_s``,
    the untraced campaign run just before it. Host noise between two
    campaigns is far larger than what the spans cost, so this difference
    does not resolve the overhead; ``tracing.span_cost_s`` (spans recorded ×
    the measured cost of one span) does.
    """
    import numpy as np

    from perfbench import pipeline
    from perfbench.spans import span_cost

    counters = tracer.counters
    build = tracer.total("mobility.build")
    extract = tracer.total("mobility.extract")
    cell_spans = [s for s in tracer.spans if s.name.endswith(".cell")]
    own = tracer.self_times(traced.root)
    out: dict[str, float] = {
        "workload.nodes": traced.trace.num_nodes,
        "cell_failure_ratio": traced.failed / traced.attempted,
        "mobility.build_s": build,
        # subscriber-point RWP only: the build is trajectories then extraction
        "mobility.trajectories_s": (
            build - extract if tracer.named("mobility.extract") else 0.0
        ),
        "mobility.segments": counters.get("mobility.segments", 0.0),
        "mobility.extract_s": extract,
        "mobility.contacts": len(traced.trace),
        "mobility.arrays_s": tracer.total("mobility.arrays"),
        "mobility.extract_peak_mb": counters.get("mobility.extract_peak_mb", 0.0),
        "mobility.trace_mb": counters.get("mobility.trace_mb", 0.0),
        "mobility.zero_transfer_frac": zt_frac,
        "sweep.build_cells_s": tracer.total("sweep.build_cells"),
        "sweep.fingerprint_s": tracer.total("sweep.fingerprint"),
        "executors.cells": traced.attempted,
        "executors.failed": traced.failed,
        "executors.overhead_s": own.get("executors", 0.0),
        "results.aggregate_s": tracer.total("results.aggregate"),
        "io.export_s": tracer.total("io.export"),
        "io.bytes": pipeline.dir_bytes(traced.out_dir),
        "checkpoint.records": len(tracer.named("checkpoint.record")),
        "checkpoint.record_s": tracer.total("checkpoint.record"),
        "checkpoint.bytes": checkpoint_bytes,
        "checkpoint.resume_s": tracer.total("checkpoint.resume"),
        "gc.pause_s": counters.get("gc.pause_s", 0.0),
        "tracing.campaign_s": traced.campaign_s,
        "tracing.overhead_s": traced.campaign_s - untraced_s,
        "tracing.span_cost_s": len(tracer.spans) * span_cost(),
    }
    for tier in TIERS:
        ms = [s.duration * 1e3 for s in cell_spans if s.name == f"{tier}.cell"]
        p50, p90 = (float(v) for v in np.percentile(ms, [50, 90])) if ms else (0.0, 0.0)
        out[f"{tier}.cells"] = len(ms)
        out[f"{tier}.busy_s"] = sum(ms) / 1e3
        out[f"{tier}.cell_ms.p50"] = p50
        out[f"{tier}.cell_ms.p90"] = p90
    for key in PROTOCOL_KEYS:
        out[f"protocol.{key}.busy_s"] = sum(
            s.duration for s in cell_spans if s.attrs["protocol"] == key
        )
    for name in FAULT_COUNTERS:
        out[f"faults.{name}"] = sum(run.churn.get(name, 0) for run in traced.result.runs)
    for layer in LAYERS:
        out[f"self.{layer}_s"] = own.get(layer, 0.0)
    return out


def tail_note(n: int) -> str:
    """Which reported percentile has at least ten cells beyond it."""
    qualified = [p for p in (50, 90, 99) if n * (100 - p) / 100 >= 10]
    if not qualified:
        return "no percentile has ten cells beyond it; p50/p90 are indicative only"
    return f"highest percentile with >= 10 cells beyond it: p{qualified[-1]}"


def write_breakdown(
    args: argparse.Namespace, values: dict[str, float], untraced_s: float
) -> str:
    """Save the traced self-time breakdown as JSON; return it as a markdown table."""
    traced_s = values["tracing.campaign_s"]
    rows = {layer: values[f"self.{layer}_s"] for layer in LAYERS}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_campaign_s": traced_s,
        "untraced_campaign_s": untraced_s,
        "tracing_overhead_s": values["tracing.overhead_s"],
        "self_s": rows,
        "share_of_traced_campaign": {k: v / traced_s for k, v in rows.items()},
        "per_layer": values,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"breakdown_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    lines = [
        f"### {args.workload} (seed {args.seed}): traced campaign {traced_s:.3f} s, "
        f"untraced {untraced_s:.3f} s, tracing overhead {values['tracing.overhead_s']:.3f} s",
        "",
        "| layer | self time (s) | share of traced campaign |",
        "|---|---:|---:|",
    ]
    lines += [f"| {k} | {v:.3f} | {v / traced_s:.1%} |" for k, v in rows.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
