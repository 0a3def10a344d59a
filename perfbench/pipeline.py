"""Workloads, the campaign pipeline, and the benchmark's correctness checks.

:func:`run_campaign` is the library path ``repro run-scenario --checkpoint
DIR --out DIR`` takes, step by step: ``ScenarioSpec`` load → trace build →
``contact_arrays()`` → ``run_sweep`` with a ``CheckpointJournal`` on a
``SerialExecutor`` → ``SweepResult.*_series`` → ``analysis.io`` exports.
The one difference is that the shared trace is built by the benchmark and
handed to ``run_sweep`` instead of being built inside it, so that set-up
can be timed up to the first cell; for a shared trace the two are the same
computation, and the self-test pins the exports byte-identical to the CLI's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import re
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.spans import ROOT, Span, Tracer, instrument
from repro.analysis.io import write_runs_csv, write_series_json
from repro.core.checkpoint import CheckpointJournal
from repro.core.executors import Cell, CellTask, FailurePolicy, SerialExecutor, execute_cell
from repro.core.results import RunResult, SweepResult
from repro.core.simulation import Simulation
from repro.core.sweep import build_cells, run_sweep
from repro.core.sweepkernel import kernel_unsupported_reason
from repro.core.workload import single_flow
from repro.ioutil import atomic_write_text
from repro.mobility.contact import ContactTrace, zero_transfer_mask
from repro.scenarios.spec import ScenarioSpec

# ------------------------------------------------------------------ workloads

_PURE = {"name": "pure"}
_PQ_ANTI = {"name": "pq", "params": {"p": 1.0, "q": 1.0, "anti_packets": True}}
_IMMUNITY = {"name": "immunity"}

#: The fault environment of ``examples/scenarios/churn_resilience.json``,
#: copied so that editing the example does not silently change the benchmark.
_CHURN_FAULTS = {
    "churn_rate": 0.0002,
    "mean_downtime": 1500.0,
    "state_loss": "all",
    "contact_drop_prob": 0.05,
    "interrupt_prob": 0.1,
    "transfer_failure_prob": 0.02,
    "downtime_schedule": [],
}

#: Workload name → scenario JSON body; :func:`workload_spec` fills in the
#: run's seed. Each workload's contact trace is pinned by its mobility seed,
#: as the paper replays one recorded campus trace and one generated RWP
#: trace; the run's seed draws everything the sweep randomises on top of it
#: (flow endpoints, protocol coins, the fault environment). A trace that
#: varied with the seed would swing the campaign's cost by up to a quarter
#: between seeds on the 12-node campus trace.
WORKLOADS: dict[str, dict[str, Any]] = {
    "rwp100-mixed": {
        "mobility": {"kind": "rwp", "seed": 1, "params": {"num_nodes": 100}},
        "protocols": [_PURE, {"name": "ttl", "params": {"ttl": 300.0}}, _PQ_ANTI, _IMMUNITY],
        "workload": {"loads": [10, 30], "replications": 1},
    },
    "campus-grid": {
        "mobility": {"kind": "campus", "seed": 7},
        "protocols": [
            _PURE,
            {"name": "pq", "params": {"p": 1.0, "q": 1.0}},
            {"name": "ttl", "params": {"ttl": 300.0}},
            {"name": "ec"},
        ],
        "workload": {"loads": list(range(5, 55, 5)), "replications": 10},
    },
    "rwp40-churn": {
        "mobility": {"kind": "rwp", "seed": 1, "params": {"num_nodes": 40}},
        "protocols": [_PURE, _PQ_ANTI, _IMMUNITY],
        "workload": {"loads": [5, 15], "replications": 3},
        "faults": _CHURN_FAULTS,
    },
}


def workload_spec(name: str, seed: int) -> dict[str, Any]:
    """The scenario JSON document of workload ``name`` at run seed ``seed``."""
    return {"name": name, "seed": seed, "on_error": "keep-going", **WORKLOADS[name]}


# ------------------------------------------------------------------- campaign

#: Name of a traced cell's span until its tier is known.
CELL = "cell"

#: ``SweepResult`` aggregations exported by ``repro run-scenario``.
SERIES_METHODS = (
    "delivery_ratio_series",
    "delay_series",
    "buffer_occupancy_series",
    "duplication_series",
)


@dataclass
class Campaign:
    """One finished campaign: its outputs and its end-to-end timings."""

    spec: ScenarioSpec
    trace: ContactTrace
    result: SweepResult
    out_dir: Path
    checkpoint_dir: Path
    runs_csv: Path
    campaign_s: float
    setup_s: float
    sweep_s: float
    root: Span | None = None  # the traced run's root span

    @property
    def attempted(self) -> int:
        return len(self.result.runs) + len(self.result.failures)

    @property
    def failed(self) -> int:
        return len(self.result.failures)


def _export(
    spec: ScenarioSpec, label: str, result: SweepResult, tables, out_dir: Path
) -> Path:
    """Write the exports ``repro run-scenario --out`` writes, the same way."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = re.sub(r"[^\w.-]+", "_", label) or "scenario"
    runs_csv = out_dir / f"{stem}_runs.csv"
    if result.runs:
        write_runs_csv(result, runs_csv)
    if result.failures:
        payload = json.dumps([dataclasses.asdict(f) for f in result.failures], indent=2)
        atomic_write_text(out_dir / f"{stem}_failures.json", payload + "\n")
    for metric, series in tables:
        write_series_json(
            series,
            out_dir / f"{stem}_{metric}.json",
            meta={
                "scenario": label,
                "metric": metric,
                "seed": spec.seed,
                "loads": list(spec.workload.loads),
                "replications": spec.workload.replications,
            },
        )
    return runs_csv


class _TracedJournal(CheckpointJournal):
    def __init__(self, directory: Path, tracer: Tracer) -> None:
        super().__init__(directory)
        self._tracer = tracer

    def begin(self, fingerprint) -> None:
        with self._tracer.span("checkpoint.begin"):
            super().begin(fingerprint)

    def record(self, key, result: RunResult) -> None:
        with self._tracer.span("checkpoint.record"):
            super().record(key, result)


class _TracedExecutor(SerialExecutor):
    def __init__(self, task: CellTask, tracer: Tracer) -> None:
        super().__init__(task)
        self._tracer = tracer

    def run(self, cells, **kwargs):
        with self._tracer.span("executors.run"):
            return super().run(cells, **kwargs)


def run_campaign(
    spec_path: Path,
    out_dir: Path,
    checkpoint_dir: Path,
    *,
    tracer: Tracer | None = None,
    task: CellTask | None = None,
) -> Campaign:
    """Run one full campaign from the scenario file at ``spec_path``.

    Args:
        tracer: Records spans when enabled (traced mode); None or a
            disabled tracer runs the plain library path. Each cell's span
            is named ``cell`` until :func:`name_cell_spans` names its tier.
        task: Replacement for what runs a cell (fault-injection seam of
            the self-tests); defaults to the library's ``execute_cell``.
    """
    tracer = tracer or Tracer("untraced", enabled=False)
    run_cell = task or execute_cell
    first_start: list[float] = []

    def stamped(cell: Cell) -> RunResult:
        if not first_start:
            first_start.append(time.perf_counter())
        if not tracer.enabled:
            return run_cell(cell)
        protocol = cell.protocol
        with tracer.span(CELL, label=protocol.label, protocol=protocol_key(protocol)):
            return run_cell(cell)

    if tracer.enabled:
        journal: CheckpointJournal = _TracedJournal(checkpoint_dir, tracer)
        executor: SerialExecutor = _TracedExecutor(stamped, tracer)
        hooks = instrument(tracer)
    else:
        journal = CheckpointJournal(checkpoint_dir)
        executor = SerialExecutor(task=stamped)
        hooks = contextlib.nullcontext()

    t0 = time.perf_counter()
    with hooks, tracer.span(ROOT):
        with tracer.span("scenarios.load"):
            spec = ScenarioSpec.load(spec_path)
        with tracer.span("mobility.build"):
            trace = spec.build_trace()
        with tracer.span("mobility.arrays"):
            trace.contact_arrays()
        result = run_sweep(
            trace,
            spec.build_protocols(),
            spec.sweep_config(),
            executor=executor,
            policy=spec.failure_policy(),
            checkpoint=journal,
        )
        t_sweep = time.perf_counter()
        with tracer.span("results.aggregate"):
            tables = [
                (method.removesuffix("_series"), getattr(result, method)())
                for method in SERIES_METHODS
            ]
        with tracer.span("io.export"):
            runs_csv = _export(spec, spec.name or spec_path.stem, result, tables, out_dir)
    t_end = time.perf_counter()
    start = first_start[0] if first_start else t_sweep
    return Campaign(
        spec=spec,
        trace=trace,
        result=result,
        out_dir=out_dir,
        checkpoint_dir=checkpoint_dir,
        runs_csv=runs_csv,
        campaign_s=t_end - t0,
        setup_s=start - t0,
        sweep_s=t_sweep - start,
        root=tracer.named(ROOT)[-1] if tracer.enabled else None,
    )


def trace_memory(spec_path: Path) -> dict[str, float]:
    """Build the scenario's trace and its columnar arrays once more under
    :mod:`tracemalloc`; returns the ``mobility.*`` memory counters.

    A pass of its own, so that the allocation tracing (which slows trajectory
    generation about threefold) does not distort the traced campaign's
    timings.
    """
    tracer = Tracer("memory")
    spec = ScenarioSpec.load(spec_path)
    with instrument(tracer), tracer.retained_memory("mobility.trace_mb"):
        trace = spec.build_trace()  # kept referenced until the count is taken
        trace.contact_arrays()
    return {k: v for k, v in tracer.counters.items() if k.endswith("_mb")}


def protocol_key(config: Any) -> str:
    """Short protocol name for per-protocol metrics (``pq_anti`` for P-Q
    with anti-packets)."""
    name = config.protocol_name
    return f"{name}_anti" if getattr(config, "anti_packets", False) else name


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ------------------------------------------------------- workload properties


def cell_tiers(cells: Sequence[Cell]) -> dict[str, str]:
    """Protocol label → the tier that executes its cells.

    ``"sweepkernel"`` when :func:`repro.core.sweepkernel.kernel_unsupported_reason`
    accepts the cell's simulation, ``"simulation"`` (the event tier)
    otherwise. The reason depends on the protocol population and the
    simulation config, never on the load or replication, so one probe per
    protocol classifies all of its cells.
    """
    tiers: dict[str, str] = {}
    for cell in cells:
        label = cell.protocol.label
        if label in tiers:
            continue
        config = cell.sweep.sim
        if config.engine != "des" or config.kernel == "event":
            tiers[label] = "simulation"
            continue
        flows = single_flow(cell.trace.num_nodes, cell.load, np.random.default_rng(0))
        sim = Simulation(cell.trace, cell.protocol, flows, config=config, fault_seed=0)
        tiers[label] = "simulation" if kernel_unsupported_reason(sim) else "sweepkernel"
    return tiers


def name_cell_spans(tracer: Tracer, tiers: dict[str, str]) -> None:
    """Rename each traced cell's span to ``<tier>.cell``, so that its self
    time is charged to the tier that ran it. The tiers are classified after
    the campaign, so that classifying adds nothing to the traced timings."""
    for span in tracer.named(CELL):
        span.name = f"{tiers[span.attrs['label']]}.cell"


def zero_transfer_frac(spec: ScenarioSpec, trace: ContactTrace) -> float:
    return float(zero_transfer_mask(trace, spec.bundle_tx_time).mean())


# ---------------------------------------------------------- correctness checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _refuse(cell: Cell) -> RunResult:
    raise RuntimeError("resume re-executed a cell the journal holds")


def resume_identical(campaign: Campaign, *, tracer: Tracer | None = None) -> bool:
    """Resume the campaign's completed journal: nothing may re-execute, and
    the restored runs must equal the campaign's own, repr for repr."""
    tracer = tracer or Tracer("untraced", enabled=False)
    spec = campaign.spec
    with tracer.span("checkpoint.resume"):
        resumed = run_sweep(
            campaign.trace,
            spec.build_protocols(),
            spec.sweep_config(),
            executor=SerialExecutor(task=_refuse),
            policy=FailurePolicy(on_error="keep-going"),
            checkpoint=CheckpointJournal(campaign.checkpoint_dir, resume=True),
        )
    return [repr(r) for r in resumed.runs] == [repr(r) for r in campaign.result.runs] and len(
        resumed.failures
    ) == len(campaign.result.failures)


def kernel_identity(
    campaign: Campaign, tiers: dict[str, str], seed: int, sample: int = 2
) -> tuple[int, int]:
    """Re-run a seeded sample of the campaign's SoA cells with
    ``kernel="event"``; returns (cells checked, cells whose ``RunResult``
    repr differs from the campaign's)."""
    spec = campaign.spec
    cells = build_cells(campaign.trace, spec.build_protocols(), spec.sweep_config())
    failed = {(f.protocol_label, f.load, f.rep) for f in campaign.result.failures}
    runs = iter(campaign.result.runs)
    produced = [
        (cell, None if (cell.protocol.label, cell.load, cell.rep) in failed else next(runs))
        for cell in cells
    ]
    soa = [
        (cell, run)
        for cell, run in produced
        if run is not None and tiers[cell.protocol.label] == "sweepkernel"
    ]
    if not soa:
        return 0, 0
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(soa), size=min(sample, len(soa)), replace=False)
    mismatches = 0
    for i in sorted(int(p) for p in picks):
        cell, run = soa[i]
        event = dataclasses.replace(
            cell.sweep, sim=dataclasses.replace(cell.sweep.sim, kernel="event")
        )
        if repr(execute_cell(cell._replace(sweep=event))) != repr(run):
            mismatches += 1
    return len(picks), mismatches
