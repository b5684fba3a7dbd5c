"""Shared benchmark helpers.

Benchmarks report two kinds of numbers:

* **simulated seconds** — latencies measured on the deterministic
  simulator with the paper's topology (Figure 1), machines (Table 1), and
  calibrated crypto costs (Table 3).  These are the numbers compared
  against the paper's tables; they are attached to each benchmark as
  ``extra_info`` and printed as paper-style rows.
* **wall-clock seconds** — real timings of this implementation's
  primitives (pytest-benchmark's own measurement), used for the Table 3
  relative breakdown.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, Tuple

import pytest

from repro.config import ServiceConfig
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.sim.machines import lan_setup, paper_setup

# Table 2 of the paper, for side-by-side printing:
# (setup, protocol) -> (add seconds, delete seconds)
PAPER_TABLE2: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("(4,0)*", "basic"): (7.09, 3.80),
    ("(4,0)*", "optproof"): (1.72, 0.96),
    ("(4,0)*", "optte"): (1.53, 0.92),
    ("(4,0)", "basic"): (6.36, 3.10),
    ("(4,0)", "optproof"): (3.09, 1.78),
    ("(4,0)", "optte"): (3.01, 1.80),
    ("(4,1)", "basic"): (9.29, 5.04),
    ("(4,1)", "optproof"): (6.48, 3.99),
    ("(4,1)", "optte"): (3.10, 1.90),
    ("(7,0)", "basic"): (21.73, 10.09),
    ("(7,0)", "optproof"): (3.06, 1.74),
    ("(7,0)", "optte"): (2.30, 1.83),
    ("(7,1)", "basic"): (24.57, 10.85),
    ("(7,1)", "optproof"): (4.20, 2.73),
    ("(7,1)", "optte"): (3.46, 2.03),
    ("(7,2)", "basic"): (21.21, 10.55),
    ("(7,2)", "optproof"): (15.79, 8.32),
    ("(7,2)", "optte"): (4.01, 2.27),
}

# Paper read latencies per setup (the "Read" column of Table 2).
PAPER_READS = {"(1,0)": 0.047, "(4,0)*": 0.05, "(4,0)": 0.37, "(7,0)": 0.44}

# Table 2 row definitions: label -> (n, t, corruptions, on_lan)
TABLE2_SETUPS = {
    "(4,0)*": (4, 1, 0, True),
    "(4,0)": (4, 1, 0, False),
    "(4,1)": (4, 1, 1, False),
    "(7,0)": (7, 2, 0, False),
    "(7,1)": (7, 2, 1, False),
    "(7,2)": (7, 2, 2, False),
}

REPETITIONS = 3  # paper used 20; simulated runs are deterministic per seed


def build_service(
    label: str, protocol: str, seed: int = 0, signers=None, **config_extra
) -> ReplicatedNameService:
    n, t, k, lan = TABLE2_SETUPS[label]
    topology = lan_setup(n) if lan else paper_setup(n)
    service = ReplicatedNameService(
        ServiceConfig(n=n, t=t, signing_protocol=protocol, **config_extra),
        topology=topology,
        seed=seed,
        signers=signers,
    )
    if k:
        service.corrupt_paper_style(k)
    return service


def measure_cell(label: str, protocol: str, reps: int = REPETITIONS):
    """One Table 2 cell: mean read/add/delete simulated latency.

    Runs the paper's signing rule — every replica signs every session
    (``signers=n``) — so the modelled table reproduces the paper's setup.
    """
    n = TABLE2_SETUPS[label][0]
    reads, adds, deletes = [], [], []
    for seed in range(reps):
        service = build_service(label, protocol, seed=seed, signers=n)
        reads.append(service.query("www.example.com.", c.TYPE_A).latency)
        _, _, add_total = service.nsupdate_add(
            "bench.example.com.", c.TYPE_A, 3600, "192.0.2.99"
        )
        _, _, delete_total = service.nsupdate_delete("bench.example.com.")
        adds.append(add_total)
        deletes.append(delete_total)
    return mean(reads), mean(adds), mean(deletes)


@pytest.fixture(scope="session")
def table2_results():
    """Session-scoped cache so the summary row reuses per-cell results."""
    return {}
