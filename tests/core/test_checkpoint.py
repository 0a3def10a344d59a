"""Checkpoint journal: lossless round-trips, crash tolerance, refusals."""

import json
import os

import pytest

from repro.core.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointJournal,
    cell_key,
)
from repro.core.protocols import make_protocol_config
from repro.core.sweep import SweepConfig, build_cells, campaign_fingerprint
from repro.ioutil import atomic_write, atomic_write_text
from tests.helpers import CHAIN_ROWS, micro_trace, run_micro

FINGERPRINT = {
    "master_seed": 3,
    "loads": [2],
    "replications": 2,
    "shared_trace": True,
    "engine": "des",
    "protocols": ["Epidemic"],
    "traces": ["micro"],
}


@pytest.fixture
def result():
    _, r = run_micro("pure", CHAIN_ROWS, 4, load=2)
    return r


@pytest.fixture
def occupancy_result():
    from repro.core.simulation import SimulationConfig

    _, r = run_micro(
        "pure",
        CHAIN_ROWS,
        4,
        load=2,
        sim_config=SimulationConfig(record_occupancy=True),
    )
    assert r.occupancy_series  # the fixture must exercise the optional field
    return r


class TestRunResultRoundTrip:
    def test_json_round_trip_is_exact(self, result):
        from repro.core.results import RunResult

        back = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back == result
        assert repr(back) == repr(result)  # bit-identical, not just approx

    def test_occupancy_series_round_trips(self, occupancy_result):
        from repro.core.results import RunResult

        back = RunResult.from_dict(
            json.loads(json.dumps(occupancy_result.to_dict()))
        )
        assert back == occupancy_result
        assert isinstance(back.occupancy_series, tuple)

    def test_unknown_field_rejected(self, result):
        from repro.core.results import RunResult

        data = result.to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="unknown RunResult field"):
            RunResult.from_dict(data)

    def test_missing_field_rejected(self, result):
        from repro.core.results import RunResult

        data = result.to_dict()
        del data["delivery_ratio"]
        with pytest.raises(ValueError, match="missing RunResult field"):
            RunResult.from_dict(data)


class TestCellKey:
    def test_keys_on_label_not_registry_name(self):
        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(loads=(2,), replications=1, master_seed=0)
        variants = [
            make_protocol_config("pq", p=0.25, q=1.0),
            make_protocol_config("pq", p=0.75, q=1.0),
        ]
        keys = {cell_key(c) for c in build_cells(trace, variants, cfg)}
        assert len(keys) == 2  # same registry name, distinct journal keys


class TestJournalLifecycle:
    def test_record_then_reload(self, tmp_path, result):
        key = ("Epidemic", 2, 0)
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
            assert len(j) == 0
            j.record(key, result)
            assert key in j

        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        j2.begin(FINGERPRINT)
        assert j2.keys() == [key]
        restored = j2.get(key)
        assert restored == result
        assert repr(restored) == repr(result)
        j2.close()

    def test_record_before_begin_rejected(self, tmp_path, result):
        j = CheckpointJournal(tmp_path / "camp")
        with pytest.raises(CheckpointError, match="begin"):
            j.record(("Epidemic", 2, 0), result)

    def test_populated_dir_without_resume_refused(self, tmp_path, result):
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
            j.record(("Epidemic", 2, 0), result)
        fresh = CheckpointJournal(tmp_path / "camp")
        with pytest.raises(CheckpointError, match="--resume"):
            fresh.begin(FINGERPRINT)

    def test_resume_into_empty_dir_is_fine(self, tmp_path):
        j = CheckpointJournal(tmp_path / "camp", resume=True)
        j.begin(FINGERPRINT)
        assert len(j) == 0
        j.close()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
        other = dict(FINGERPRINT, master_seed=99)
        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            j2.begin(other)

    def test_schema_mismatch_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "manifest.json").write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1, "campaign": FINGERPRINT})
        )
        with pytest.raises(CheckpointError, match="schema version"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)

    def test_unreadable_manifest_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable manifest"):
            CheckpointJournal(camp).begin(FINGERPRINT)

    def test_journal_without_manifest_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "journal.jsonl").write_text('{"v": 1}\n')
        with pytest.raises(CheckpointError, match="without a manifest"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)


class TestCrashTolerance:
    def _populated(self, tmp_path, result):
        camp = tmp_path / "camp"
        with CheckpointJournal(camp) as j:
            j.begin(FINGERPRINT)
            j.record(("Epidemic", 2, 0), result)
            j.record(("Epidemic", 2, 1), result)
        return camp

    def test_torn_tail_dropped_and_truncated(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        journal = camp / "journal.jsonl"
        clean_size = journal.stat().st_size
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "key": {"protocol": "Epi')  # no newline: torn
        j = CheckpointJournal(camp, resume=True)
        j.begin(FINGERPRINT)
        assert j.dropped_partial
        assert len(j) == 2  # the torn record simply re-runs
        j.close()
        assert journal.stat().st_size == clean_size  # tail truncated away

    def test_poisoned_terminated_line_refused(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{this is not json}\n")  # terminated => not a torn append
        j = CheckpointJournal(camp, resume=True)
        with pytest.raises(CheckpointError, match="poisoned journal record"):
            j.begin(FINGERPRINT)

    def test_record_schema_mismatch_refused(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        line = json.dumps(
            {"v": SCHEMA_VERSION + 1, "key": {}, "result": {}}
        )
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(CheckpointError, match="record schema version"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)

    def test_blank_lines_ignored(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        j = CheckpointJournal(camp, resume=True)
        j.begin(FINGERPRINT)
        assert len(j) == 2
        j.close()


class TestCampaignFingerprint:
    def _grid(self, seed=3):
        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(loads=(2, 3), replications=2, master_seed=seed)
        protos = [make_protocol_config("pure"), make_protocol_config("ec")]
        return build_cells(trace, protos, cfg), cfg

    def test_json_safe_and_stable(self):
        cells, cfg = self._grid()
        fp = campaign_fingerprint(cells, cfg)
        assert json.loads(json.dumps(fp)) == fp
        assert fp == campaign_fingerprint(cells, cfg)

    def test_seed_changes_fingerprint(self):
        cells_a, cfg_a = self._grid(seed=3)
        cells_b, cfg_b = self._grid(seed=4)
        assert campaign_fingerprint(cells_a, cfg_a) != campaign_fingerprint(
            cells_b, cfg_b
        )

    def _faulted_grid(self, faults):
        from repro.core.simulation import SimulationConfig

        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(
            loads=(2, 3),
            replications=2,
            master_seed=3,
            sim=SimulationConfig(faults=faults),
        )
        protos = [make_protocol_config("pure"), make_protocol_config("ec")]
        return build_cells(trace, protos, cfg), cfg

    def test_fault_spec_changes_fingerprint(self):
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        plain = campaign_fingerprint(cells, cfg)
        assert plain["faults"] is None
        faulted_cells, faulted_cfg = self._faulted_grid(
            FaultSpec(churn_rate=1e-4, mean_downtime=500.0, state_loss="all")
        )
        faulted = campaign_fingerprint(faulted_cells, faulted_cfg)
        assert faulted != plain
        assert faulted["faults"]["churn_rate"] == 1e-4
        assert json.loads(json.dumps(faulted)) == faulted

    def test_trivial_fault_spec_fingerprints_like_none(self):
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        trivial_cells, trivial_cfg = self._faulted_grid(FaultSpec())
        assert campaign_fingerprint(trivial_cells, trivial_cfg) == (
            campaign_fingerprint(cells, cfg)
        )

    def test_resume_against_different_fault_env_refused(self, tmp_path):
        """Satellite acceptance: a campaign journaled without faults must
        refuse a --resume that would mix in faulted cells (and vice
        versa) instead of silently blending the two."""
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(campaign_fingerprint(cells, cfg))
        faulted_cells, faulted_cfg = self._faulted_grid(
            FaultSpec(churn_rate=1e-4, mean_downtime=500.0)
        )
        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            j2.begin(campaign_fingerprint(faulted_cells, faulted_cfg))


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_failure_preserves_original_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("precious")

        def _boom(stream):
            stream.write("partial")
            raise RuntimeError("disk gremlin")

        with pytest.raises(RuntimeError, match="disk gremlin"):
            atomic_write(target, _boom)
        assert target.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]  # no .tmp litter

    def test_newline_passthrough(self, tmp_path):
        target = tmp_path / "rows.csv"
        atomic_write(target, lambda fh: fh.write("a\r\n"), newline="")
        assert target.read_bytes() == b"a\r\n"


class TestResumeRefusesStaleResults:
    """A resume must refuse whenever anything that determines a result
    changed — every result-affecting ``SimulationConfig`` field and the
    trace's content — and must proceed when only the execution kernel did."""

    #: one changed value per result-affecting SimulationConfig field
    MUTATIONS = {
        "buffer_capacity": 3,
        "bundle_tx_time": 50.0,
        "drop_policy": "drop-oldest",
        "record_occupancy": True,
        "engine": "ode",
        "faults": "churn",
    }

    def _sweep(self, sim=None):
        from repro.core.simulation import SimulationConfig

        return SweepConfig(
            loads=(2,), replications=2, master_seed=5, sim=sim or SimulationConfig()
        )

    def _campaign(self, tmp_path, trace=None):
        from repro.core.sweep import run_sweep

        trace = trace or micro_trace(CHAIN_ROWS, 4, name="chain")
        protos = [make_protocol_config("pure")]
        result = run_sweep(trace, protos, self._sweep(), checkpoint=tmp_path / "camp")
        return trace, protos, result

    def _resume(self, tmp_path, trace, protos, sweep):
        from repro.core.executors import SerialExecutor
        from repro.core.sweep import run_sweep

        def refuse(cell):
            raise AssertionError("resume re-executed a journaled cell")

        return run_sweep(
            trace,
            protos,
            sweep,
            executor=SerialExecutor(task=refuse),
            checkpoint=CheckpointJournal(tmp_path / "camp", resume=True),
        )

    def test_every_result_field_is_mutated(self):
        from dataclasses import fields

        from repro.core.simulation import SimulationConfig
        from repro.core.sweep import EXECUTION_ONLY_FIELDS

        result_fields = {f.name for f in fields(SimulationConfig)} - EXECUTION_ONLY_FIELDS
        assert result_fields == set(self.MUTATIONS)
        assert EXECUTION_ONLY_FIELDS == {"kernel"}

    @pytest.mark.parametrize("field_name", sorted(MUTATIONS))
    def test_mutated_result_field_refused(self, tmp_path, field_name):
        import dataclasses

        from repro.core.simulation import SimulationConfig
        from repro.faults import FaultSpec

        trace, protos, _ = self._campaign(tmp_path)
        value = self.MUTATIONS[field_name]
        if field_name == "faults":
            value = FaultSpec(churn_rate=1e-4, mean_downtime=500.0)
        sim = dataclasses.replace(SimulationConfig(), **{field_name: value})
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            self._resume(tmp_path, trace, protos, self._sweep(sim))

    def test_same_name_different_contacts_refused(self, tmp_path):
        trace, protos, _ = self._campaign(tmp_path)
        rows = [(s + 1.0, e + 1.0, a, b) for s, e, a, b in CHAIN_ROWS]
        shifted = micro_trace(rows, 4, name="chain")
        assert shifted.name == trace.name
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            self._resume(tmp_path, shifted, protos, self._sweep())

    def test_same_name_larger_population_refused(self, tmp_path):
        _, protos, _ = self._campaign(tmp_path)
        bigger = micro_trace(CHAIN_ROWS, 6, name="chain")
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            self._resume(tmp_path, bigger, protos, self._sweep())

    def test_same_name_longer_horizon_refused(self, tmp_path):
        trace, protos, _ = self._campaign(tmp_path)
        longer = micro_trace(CHAIN_ROWS, 4, name="chain", horizon=trace.horizon + 1.0)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            self._resume(tmp_path, longer, protos, self._sweep())

    @pytest.mark.parametrize("kernel", ["event", "soa"])
    def test_mutated_kernel_resumes(self, tmp_path, kernel):
        from repro.core.simulation import SimulationConfig

        _, protos, result = self._campaign(tmp_path)
        # an equal trace, rebuilt as a new object, is the same campaign
        rebuilt = micro_trace(CHAIN_ROWS, 4, name="chain")
        resumed = self._resume(
            tmp_path, rebuilt, protos, self._sweep(SimulationConfig(kernel=kernel))
        )
        assert [repr(r) for r in resumed.runs] == [repr(r) for r in result.runs]
