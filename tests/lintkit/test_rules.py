"""Fixture corpus for the reprolint rule set.

Every rule has at least one must-fire and one must-pass snippet, plus a
pragma-suppression case, exercised through :func:`lint_sources` at the
path the rule is scoped to. A rule that silently stops firing is itself
the bug class this suite exists to catch.
"""

from __future__ import annotations

import pytest

from tools.lintkit.engine import lint_sources
from tools.lintkit.rules import default_rules

#: rel_path inside every rule's scope, per rule id
SCOPED_PATH = {
    "DET001": "src/repro/core/session.py",
    "DET002": "src/repro/core/knowledge.py",
    "DET003": "src/repro/core/simulation.py",
    "HOT001": "src/repro/des/engine.py",
    "HOT002": "src/repro/core/simulation.py",
    "HOT003": "src/repro/core/sweepkernel.py",
    "SPEC001": "src/repro/scenarios/spec.py",
    "API001": "src/repro/core/policies.py",
}


def run_rule(rule_id: str, source: str, path: str | None = None):
    rules = [r for r in default_rules() if r.rule_id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    return lint_sources([(path or SCOPED_PATH[rule_id], source)], rules)


def assert_fires(rule_id: str, source: str, path: str | None = None):
    out = run_rule(rule_id, source, path)
    assert out, f"{rule_id} should fire on:\n{source}"
    assert all(v.rule_id == rule_id for v in out)
    return out


def assert_clean(rule_id: str, source: str, path: str | None = None):
    out = run_rule(rule_id, source, path)
    assert not out, f"{rule_id} should pass on:\n{source}\ngot: {out}"


# ------------------------------------------------------------------ DET001


class TestUnseededRandom:
    def test_fires_on_stdlib_random_call(self):
        assert_fires("DET001", "import random\nx = random.random()\n")

    def test_fires_on_stdlib_random_import_alias(self):
        assert_fires("DET001", "import random as rnd\nx = rnd.choice([1, 2])\n")

    def test_fires_on_from_random_import(self):
        assert_fires("DET001", "from random import shuffle\n")

    def test_fires_on_np_global_draw(self):
        assert_fires("DET001", "import numpy as np\nx = np.random.randint(3)\n")

    def test_fires_on_numpy_random_module_alias(self):
        assert_fires("DET001", "import numpy.random as nr\nx = nr.uniform()\n")

    def test_fires_on_unseeded_default_rng(self):
        assert_fires("DET001", "import numpy as np\nrng = np.random.default_rng()\n")
        assert_fires(
            "DET001",
            "from numpy.random import default_rng\nrng = default_rng()\n",
        )

    def test_passes_on_seeded_default_rng(self):
        assert_clean("DET001", "import numpy as np\nrng = np.random.default_rng(7)\n")

    def test_passes_on_generator_method_draws(self):
        assert_clean(
            "DET001",
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n",
        )

    def test_out_of_scope_in_rng_module(self):
        # des/rng.py is the one place allowed to derive generators
        assert_clean(
            "DET001",
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="src/repro/des/rng.py",
        )

    def test_covers_fault_module(self):
        # the src/repro/* scope glob crosses "/": the disruption layer is
        # in-scope without a rule change
        assert_fires(
            "DET001",
            "import random\nx = random.random()\n",
            path="src/repro/faults.py",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "DET001",
            "import random\nx = random.random()  # lint: disable=DET001\n",
        )


# ------------------------------------------------------------------ DET002


class TestUnorderedIteration:
    def test_fires_on_set_literal_iteration(self):
        assert_fires("DET002", "for x in {3, 1, 2}:\n    print(x)\n")

    def test_fires_on_set_annotated_parameter(self):
        assert_fires(
            "DET002",
            "def f(bids: set) -> list:\n"
            "    return [b for b in bids]\n",
        )

    def test_fires_on_union_set_annotation(self):
        assert_fires(
            "DET002",
            "def f(bids: frozenset[int] | set[int]) -> list[int]:\n"
            "    return [b for b in bids]\n",
        )

    def test_fires_on_local_set_assignment(self):
        assert_fires(
            "DET002",
            "def f(xs: list[int]) -> None:\n"
            "    seen = set(xs)\n"
            "    for x in seen:\n"
            "        print(x)\n",
        )

    def test_fires_on_unsorted_keys(self):
        assert_fires(
            "DET002",
            "def f(d: dict[int, int]) -> None:\n"
            "    for k in d.keys():\n"
            "        print(k)\n",
        )

    def test_fires_on_unsorted_items(self):
        assert_fires(
            "DET002",
            "def f(d: dict[int, int]) -> None:\n"
            "    for k, v in d.items():\n"
            "        print(k, v)\n",
        )

    def test_passes_on_sorted_items(self):
        assert_clean(
            "DET002",
            "def f(d: dict[int, int]) -> None:\n"
            "    for k, v in sorted(d.items()):\n"
            "        print(k, v)\n",
        )

    def test_passes_on_list_iteration(self):
        assert_clean(
            "DET002",
            "def f(xs: list[int]) -> None:\n"
            "    for x in xs:\n"
            "        print(x)\n",
        )

    def test_passes_on_values_iteration(self):
        # dict.values() order is insertion order; flagged only via .keys/.items
        assert_clean(
            "DET002",
            "def f(d: dict[int, int]) -> None:\n"
            "    for v in d.values():\n"
            "        print(v)\n",
        )

    def test_out_of_scope_module_not_checked(self):
        assert_clean(
            "DET002",
            "for x in {3, 1, 2}:\n    print(x)\n",
            path="src/repro/analysis/tables.py",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "DET002",
            "def f(bids: set) -> list:\n"
            "    return [b for b in bids]  # lint: disable=DET002\n",
        )


# ------------------------------------------------------------------ DET003


class TestWallClock:
    def test_fires_on_time_time(self):
        assert_fires("DET003", "import time\nt = time.time()\n")

    def test_fires_on_time_alias(self):
        assert_fires("DET003", "import time as tm\nt = tm.time_ns()\n")

    def test_fires_on_from_time_import(self):
        assert_fires("DET003", "from time import time\n")

    def test_fires_on_datetime_now(self):
        assert_fires(
            "DET003", "from datetime import datetime\nt = datetime.now()\n"
        )
        assert_fires(
            "DET003", "import datetime\nt = datetime.datetime.utcnow()\n"
        )

    def test_passes_on_perf_counter(self):
        assert_clean("DET003", "import time\nt = time.perf_counter()\n")
        assert_clean("DET003", "import time\nt = time.monotonic()\n")

    def test_out_of_scope_outside_src_repro(self):
        assert_clean(
            "DET003", "import time\nt = time.time()\n", path="tools/bench_sim.py"
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "DET003", "import time\nt = time.time()  # lint: disable=DET003\n"
        )


# ------------------------------------------------------------------ HOT001


class TestSlots:
    def test_fires_on_plain_class(self):
        assert_fires(
            "HOT001",
            "class Engine:\n"
            "    def __init__(self) -> None:\n"
            "        self.x = 1\n",
        )

    def test_passes_with_slots(self):
        assert_clean(
            "HOT001",
            "class Engine:\n"
            '    __slots__ = ("x",)\n'
            "    def __init__(self) -> None:\n"
            "        self.x = 1\n",
        )

    def test_passes_on_slotted_dataclass(self):
        assert_clean(
            "HOT001",
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Bundle:\n"
            "    x: int\n",
        )

    def test_fires_on_unslotted_dataclass(self):
        assert_fires(
            "HOT001",
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Bundle:\n"
            "    x: int\n",
        )

    def test_exempts_enums_and_exceptions(self):
        assert_clean(
            "HOT001",
            "import enum\n"
            "class StopCondition(enum.Enum):\n"
            "    DONE = 1\n",
        )
        assert_clean("HOT001", "class QueueError(Exception):\n    pass\n")

    def test_out_of_scope_module(self):
        assert_clean(
            "HOT001",
            "class Anything:\n    pass\n",
            path="src/repro/analysis/tables.py",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "HOT001",
            "class Engine:  # lint: disable=HOT001\n"
            "    def __init__(self) -> None:\n"
            "        self.x = 1\n",
        )


# ------------------------------------------------------------------ HOT002


class TestScheduleClosure:
    def test_fires_on_lambda_to_at(self):
        assert_fires(
            "HOT002",
            "def go(engine, node) -> None:\n"
            "    engine.at(1.0, lambda: node.tick())\n",
        )

    def test_fires_on_lambda_to_schedule_sorted(self):
        assert_fires(
            "HOT002",
            "def go(engine, items) -> None:\n"
            "    engine.schedule_sorted((t, lambda: None, ()) for t, _ in items)\n",
        )

    def test_fires_on_partial_to_after(self):
        assert_fires(
            "HOT002",
            "from functools import partial\n"
            "def go(engine, node) -> None:\n"
            "    engine.after(5.0, partial(node.tick, 1))\n",
        )

    def test_passes_on_positional_args_style(self):
        assert_clean(
            "HOT002",
            "def go(engine, node) -> None:\n"
            "    engine.at(1.0, node.tick, 1, 2)\n",
        )

    def test_passes_on_lambda_outside_schedulers(self):
        assert_clean(
            "HOT002",
            "def go(order) -> None:\n"
            "    order.sort(key=lambda sb: sb.stored_at)\n",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "HOT002",
            "def go(engine, node) -> None:\n"
            "    engine.at(1.0, lambda: node.tick())  # lint: disable=HOT002\n",
        )


# ------------------------------------------------------------------ HOT003

FASTCONTACT = "src/repro/mobility/fastcontact.py"


class TestKernelContactLoop:
    def test_fires_on_for_over_contact_column(self):
        assert_fires(
            "HOT003",
            "def drive(starts_l) -> None:\n"
            "    for t in starts_l:\n"
            "        print(t)\n",
        )

    def test_fires_on_comprehension_over_live_endpoints(self):
        assert_fires(
            "HOT003",
            "def tally(self) -> list[int]:\n"
            "    return [a + 1 for a in self._live_a]\n",
        )

    def test_fires_on_zipped_contact_columns(self):
        assert_fires(
            "HOT003",
            "def walk(starts, ends) -> None:\n"
            "    for s, e in zip(starts, ends):\n"
            "        print(s, e)\n",
        )

    def test_passes_on_candidate_and_flow_loops(self):
        assert_clean(
            "HOT003",
            "def offer(bits, sbs, flows) -> None:\n"
            "    for i, bit in enumerate(bits):\n"
            "        print(sbs[i])\n"
            "    for flow in flows:\n"
            "        print(flow)\n",
        )

    def test_passes_outside_the_kernel_module(self):
        assert_clean(
            "HOT003",
            "def flush(starts_l) -> None:\n"
            "    for t in starts_l:\n"
            "        print(t)\n",
            path="src/repro/core/simulation.py",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "HOT003",
            "def drive(starts_l) -> None:\n"
            "    for t in starts_l:  # lint: disable=HOT003\n"
            "        print(t)\n",
        )

    def test_fires_on_per_window_fold_in_the_extractor(self):
        assert_fires(
            "HOT003",
            "def fold(starts, ends, na, nb_) -> list:\n"
            "    out = []\n"
            "    for s, e, i, j in zip(starts, ends, na, nb_):\n"
            "        out.append((s, e, i, j))\n"
            "    return out\n",
            path=FASTCONTACT,
        )

    def test_fires_on_index_loop_over_window_column(self):
        assert_fires(
            "HOT003",
            "def fold(na) -> None:\n"
            "    for k in range(len(na)):\n"
            "        print(k)\n",
            path=FASTCONTACT,
        )

    def test_passes_on_offset_and_trajectory_loops_in_the_extractor(self):
        assert_clean(
            "HOT003",
            "def join(uniq, trajectories) -> list:\n"
            "    for ox, oy in _FORWARD_OFFSETS:\n"
            "        print(uniq + ox + oy)\n"
            "    return [t.t0 for t in trajectories]\n",
            path=FASTCONTACT,
        )


# ------------------------------------------------------------------ SPEC001


SPEC_OK = """
from dataclasses import dataclass
from typing import Any

@dataclass(frozen=True)
class ThingSpec:
    '''doc'''
    alpha: int = 1
    beta: str = "x"

    def to_dict(self) -> dict[str, Any]:
        return {"alpha": self.alpha, "beta": self.beta}

    @classmethod
    def from_dict(cls, data) -> "ThingSpec":
        return cls(alpha=data.get("alpha", 1), beta=data.get("beta", "x"))
"""

SPEC_MISSING = SPEC_OK.replace('"beta": self.beta', '"bet_a": self.beta')


class TestSpecRoundTrip:
    def test_fires_on_field_missing_from_to_dict(self):
        out = assert_fires("SPEC001", SPEC_MISSING)
        assert "beta" in out[0].message

    def test_passes_on_complete_round_trip(self):
        assert_clean("SPEC001", SPEC_OK)

    def test_dataclass_without_round_trip_ignored(self):
        assert_clean(
            "SPEC001",
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Plain:\n"
            "    '''doc'''\n"
            "    x: int = 0\n",
        )

    def test_cross_file_mirror_fires_on_unmirrored_config_knob(self):
        config = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class SimulationConfig:\n"
            "    '''doc'''\n"
            "    buffer_capacity: int = 10\n"
            "    new_knob: float = 0.5\n"
        )
        spec = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class ScenarioSpec:\n"
            "    '''doc'''\n"
            "    buffer_capacity: int = 10\n"
        )
        rules = [r for r in default_rules() if r.rule_id == "SPEC001"]
        out = lint_sources(
            [
                ("src/repro/core/simulation.py", config),
                ("src/repro/scenarios/spec.py", spec),
            ],
            rules,
        )
        assert out, "unmirrored SimulationConfig knob must fire"
        assert any("new_knob" in v.message for v in out)
        assert not any("buffer_capacity" in v.message for v in out)

    def test_pragma_suppresses(self):
        pragma_src = SPEC_MISSING.replace(
            "    def to_dict(self) -> dict[str, Any]:",
            "    def to_dict(self) -> dict[str, Any]:  # lint: disable=SPEC001",
        )
        assert_clean("SPEC001", pragma_src)


# ------------------------------------------------------------------ API001


class TestRegistryDocstrings:
    def test_fires_on_undocumented_public_class(self):
        out = assert_fires("API001", "class DropNewest:\n    name = 'drop-newest'\n")
        assert out[0].severity == "warning"

    def test_fires_on_undocumented_public_function(self):
        assert_fires("API001", "def make_thing():\n    return 1\n")

    def test_passes_with_docstrings(self):
        assert_clean(
            "API001",
            "class DropNewest:\n"
            "    '''Evict the newest copy.'''\n"
            "    name = 'drop-newest'\n"
            "def make_thing():\n"
            "    '''Build a thing.'''\n"
            "    return 1\n",
        )

    def test_private_names_and_methods_exempt(self):
        assert_clean(
            "API001",
            "class Documented:\n"
            "    '''doc'''\n"
            "    def method_without_doc(self):\n"
            "        return 1\n"
            "def _private():\n"
            "    return 2\n",
        )

    def test_pragma_suppresses(self):
        assert_clean(
            "API001", "def make_thing():  # lint: disable=API001\n    return 1\n"
        )


# ------------------------------------------------------------- whole tree


def test_repo_tree_is_clean():
    """The committed tree must satisfy every rule (mirrors the CI gate)."""
    from pathlib import Path

    from tools.lintkit.engine import lint_paths

    repo = Path(__file__).resolve().parents[2]
    violations = lint_paths(
        [repo / "src", repo / "tools"], default_rules(), base=repo
    )
    assert violations == [], "\n".join(v.render() for v in violations)


@pytest.mark.parametrize("rule_id", sorted(SCOPED_PATH))
def test_every_rule_has_nonempty_description(rule_id):
    rule = next(r for r in default_rules() if r.rule_id == rule_id)
    assert rule.description
    assert rule.paths, "every shipped rule is path-scoped"
