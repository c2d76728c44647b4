"""Shared fixtures and parameters for the benchmark harness.

Every benchmark regenerates one of the paper's artefacts (the Section-1.1
classification table, Figures 1-3, the promise problems, Theorems 1-2,
Corollary 1) at laptop scale and asserts the qualitative outcome the paper
reports; the measured timings are reported by pytest-benchmark.

Benchmarks that emit a machine-readable record write it through the
``write_record`` fixture into the git-ignored ``benchmarks/out/``, so a
test run never rewrites the committed ``benchmarks/BENCH_*.json``
baselines.
"""

import json
from pathlib import Path

import pytest

from repro.turing import halting_machine

#: Where fresh benchmark records go; CI gates them against the committed ones.
RECORDS_OUT = Path(__file__).resolve().parent / "out"


@pytest.fixture
def write_record():
    """Write a fresh record as ``benchmarks/out/BENCH_<name>.json``."""

    def write(name: str, payload: dict) -> None:
        RECORDS_OUT.mkdir(exist_ok=True)
        (RECORDS_OUT / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return write


@pytest.fixture(scope="session")
def machine_outputs_zero():
    """The smallest library machine in L0 (halts with output 0)."""
    return halting_machine("0", delay=0)


@pytest.fixture(scope="session")
def machine_outputs_one():
    """The smallest library machine in L1 (halts with output 1)."""
    return halting_machine("1", delay=0)
