"""End-to-end campaign benchmark for the repro library.

Runs a named workload as a full replicated sweep campaign through the same
public path ``repro run-scenario --checkpoint DIR --out DIR`` takes, prints
its end-to-end metrics (or, traced, its per-layer breakdown), and checks
that the outputs are correct. Entry point: ``python3 perfbench/run.py``;
see ``perfbench/README.md``.
"""
