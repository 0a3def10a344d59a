"""Self-tests of the campaign benchmark (``perfbench``).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``; the repository's
full ``pytest`` run collects them too.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import pipeline, run
from perfbench.spans import Tracer
from repro.cli import main as cli_main
from repro.core.executors import execute_cell
from repro.core.sweep import build_cells

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "name": "tiny",
    "seed": 3,
    "on_error": "keep-going",
    "mobility": {
        "kind": "interval",
        "params": {"num_nodes": 8, "max_encounters_per_node": 10, "max_interval": 300.0},
    },
    "protocols": [{"name": "pure"}, {"name": "ttl", "params": {"ttl": 300.0}}],
    "workload": {"loads": [2, 4], "replications": 2},
}


@pytest.fixture
def tiny_spec(tmp_path: Path) -> Path:
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_pipeline_exports_match_run_scenario(tiny_spec: Path, tmp_path: Path) -> None:
    bench = pipeline.run_campaign(
        tiny_spec, tmp_path / "bench" / "out", tmp_path / "bench" / "ckpt"
    )
    code = cli_main(
        [
            "run-scenario",
            str(tiny_spec),
            "--checkpoint",
            str(tmp_path / "cli" / "ckpt"),
            "--out",
            str(tmp_path / "cli" / "out"),
        ]
    )
    assert code == 0
    assert bench.failed == 0
    exports = _files(bench.out_dir)
    assert "tiny_runs.csv" in exports and len(exports) == 5
    assert exports == _files(tmp_path / "cli" / "out")
    assert _files(bench.checkpoint_dir) == _files(tmp_path / "cli" / "ckpt")


def test_injected_failure_raises_cell_failure_ratio(tiny_spec: Path, tmp_path: Path) -> None:
    def fail_load_four(cell):
        if cell.load == 4:
            raise RuntimeError("injected cell failure")
        return execute_cell(cell)

    tracer = Tracer("selftest")
    campaign = pipeline.run_campaign(
        tiny_spec,
        tmp_path / "out",
        tmp_path / "ckpt",
        tracer=tracer,
        task=fail_load_four,
    )
    assert (campaign.attempted, campaign.failed) == (8, 4)
    spec = campaign.spec
    cells = build_cells(campaign.trace, spec.build_protocols(), spec.sweep_config())
    pipeline.name_cell_spans(tracer, pipeline.cell_tiers(cells))
    assert pipeline.resume_identical(campaign, tracer=tracer)
    values = run.layer_metrics(tracer, campaign, 0.5, campaign.campaign_s, 1)
    assert set(values) == set(run.PER_LAYER)
    assert values["cell_failure_ratio"] == 0.5
    assert values["executors.failed"] == 4
    assert values["checkpoint.records"] == 4  # failures are not journaled
    assert values["sweepkernel.cells"] == 8 and values["simulation.cells"] == 0

    clean = pipeline.run_campaign(tiny_spec, tmp_path / "out2", tmp_path / "ckpt2")
    assert clean.failed == 0


def test_kernel_identity_samples_soa_cells(tiny_spec: Path, tmp_path: Path) -> None:
    campaign = pipeline.run_campaign(tiny_spec, tmp_path / "out", tmp_path / "ckpt")
    spec = campaign.spec
    cells = build_cells(campaign.trace, spec.build_protocols(), spec.sweep_config())
    tiers = pipeline.cell_tiers(cells)
    assert set(tiers.values()) == {"sweepkernel"}
    assert pipeline.kernel_identity(campaign, tiers, seed=0, sample=3) == (3, 0)


def test_names_are_well_formed_and_match_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert workloads == list(pipeline.WORKLOADS)
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["runs_csv_sha256"]
    assert set(pinned) == set(workloads)


def test_refuses_to_run_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = ["perfbench/run.py", "--workload", "campus-grid", "--seed", "0"]
    proc = subprocess.run(
        [sys.executable, *command, "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
