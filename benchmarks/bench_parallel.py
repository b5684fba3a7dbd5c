"""Signing-plane benchmark: serial vs pooled threshold-RSA execution.

Drives one replica's :class:`SigningCoordinator` through a pipelined
stream of signing sessions — peer shares arrive ahead of each session,
exactly as they do on a gateway replica under load — and compares the
:class:`SerialExecutor` against a :class:`PoolExecutor` backed by a real
4-worker process pool.  The replica signs every session (``signers=n``,
the paper's rule): the bench measures what the plane does to one
signer's critical path, so every session has a share to generate.

The headline metric is the **modelled makespan** from the executor's
:class:`WorkerClock`: every job is costed in Table 3 reference-machine
seconds and placed on a virtual greedy schedule, so the reported speedup
is a property of the *schedule* (what a 4-way pool does to the signing
critical path), not of how many physical cores the CI host happens to
have.  Wall-clock seconds and the host CPU count are recorded alongside
for transparency — on a single-core host the OS-level speedup is
necessarily ~1x even though the pool plane is doing its job.

Acceptance target: >= 2x modelled signing throughput with 4 pool
workers vs serial for BASIC and OptProof at (n=4, t=1).

Results are written to ``BENCH_parallel.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -v
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.crypto.executor import (
    CryptoWorkerPool,
    PoolExecutor,
    SerialExecutor,
)
from repro.crypto.params import demo_threshold_key
from repro.crypto.protocols import (
    ALL_PROTOCOLS,
    PROTOCOL_BASIC,
    PROTOCOL_OPTPROOF,
    SigningCoordinator,
    SigningMessage,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

POOL_WORKERS = 4
SESSIONS = 16
LOOKAHEAD = 6
MODULUS_BITS = 384  # small demo modulus: the clock models Table 3 costs

GROUPS = [(4, 1), (7, 2)]

_results: dict = {}
_keys: dict = {}


def _group_keys(n: int, t: int):
    if (n, t) not in _keys:
        _keys[(n, t)] = demo_threshold_key(n, t, MODULUS_BITS)
    return _keys[(n, t)]


def _peer_messages(shares, protocol_name, t, sid, message):
    """Shares the other replicas contribute (their CPUs, not this plane's).

    BASIC broadcasts proof-carrying shares and needs ``t`` valid peers on
    top of the trusted own share; the optimistic protocols assemble the
    first ``t + 1`` *received* bare shares (§3.5).
    """
    if protocol_name == PROTOCOL_BASIC:
        peers = range(1, t + 1)
        return [
            (i, SigningMessage.share_message(
                sid, shares[i].generate_share_with_proof(message)))
            for i in peers
        ]
    peers = range(1, t + 2)
    return [
        (i, SigningMessage.share_message(
            sid, shares[i].generate_share(message)))
        for i in peers
    ]


def run_signing_plane(executor, shares, protocol_name, t,
                      sessions=SESSIONS, lookahead=LOOKAHEAD):
    """Replica 0 signs a pipelined stream of messages through ``executor``.

    Peer shares for session ``k + lookahead`` are buffered (and the
    session prefetched) while session ``k`` runs — the same overlap the
    replica's signing dispatcher creates for multi-SIG updates.
    """
    coordinator = SigningCoordinator(
        protocol_name,
        shares[0],
        executor=executor,
        lookahead=lookahead,
        signers=shares[0].public.n,
    )
    messages = [f"bench-{protocol_name}-{k}".encode() for k in range(sessions)]
    sids = [f"s{k}" for k in range(sessions)]

    def feed(j):
        for sender, msg in _peer_messages(
            shares, protocol_name, t, sids[j], messages[j]
        ):
            coordinator.on_message(sender, msg)
        coordinator.prefetch(sids[j], messages[j])

    started = time.perf_counter()
    for j in range(min(lookahead, sessions)):
        feed(j)
    for k in range(sessions):
        ahead = k + lookahead
        if ahead < sessions:
            feed(ahead)
        coordinator.sign(sids[k], messages[k])
        signature = coordinator.result(sids[k])
        assert signature is not None, (protocol_name, k)
    wall = time.perf_counter() - started
    return coordinator, wall


def _leg_record(executor, coordinator, wall, sessions=SESSIONS):
    clock = executor.clock
    return {
        "workers": clock.workers,
        "makespan_ref_s": clock.makespan,
        "throughput_sessions_per_ref_s": sessions / clock.makespan,
        "busy_ref_s": clock.busy,
        "jobs": executor.stats["jobs"],
        "batch_jobs": executor.stats["batch_jobs"],
        "batched_items": executor.stats["batched_items"],
        "pipeline": dict(coordinator.pipeline_stats),
        "wall_clock_s": wall,
    }


def run_comparison(n, t, protocol_name):
    public, shares = _group_keys(n, t)

    serial_exec = SerialExecutor(shares[0])
    serial_coord, serial_wall = run_signing_plane(
        serial_exec, shares, protocol_name, t
    )

    with CryptoWorkerPool(POOL_WORKERS) as pool:
        pool_exec = PoolExecutor(pool, "replica0", key_share=shares[0])
        pool_coord, pool_wall = run_signing_plane(
            pool_exec, shares, protocol_name, t
        )

    # Behavior preservation: both planes assembled the same signatures.
    assert serial_coord._completed == pool_coord._completed

    speedup = serial_exec.clock.makespan / pool_exec.clock.makespan
    record = {
        "n": n,
        "t": t,
        "protocol": protocol_name,
        "sessions": SESSIONS,
        "lookahead": LOOKAHEAD,
        "serial": _leg_record(serial_exec, serial_coord, serial_wall),
        "pool": _leg_record(pool_exec, pool_coord, pool_wall),
        "model_speedup": speedup,
    }
    _results.setdefault("groups", []).append(record)
    return record


@pytest.mark.parametrize("n,t", GROUPS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_pool_speeds_up_signing(n, t, protocol):
    record = run_comparison(n, t, protocol)
    # Pooling must never model *slower* than serial for any group.
    assert record["model_speedup"] >= 1.0, record
    if (n, t) == (4, 1) and protocol in (PROTOCOL_BASIC, PROTOCOL_OPTPROOF):
        # The acceptance bar: the 4-worker pool at least doubles modelled
        # signing throughput for the proof-carrying and optimistic paths.
        assert record["model_speedup"] >= 2.0, (
            f"{protocol} ({n},{t}) modelled speedup "
            f"{record['model_speedup']:.2f}x below the 2x target"
        )


def test_pool_amortizes_verification_for_basic():
    record = next(
        (
            r
            for r in _results.get("groups", [])
            if r["protocol"] == PROTOCOL_BASIC and (r["n"], r["t"]) == (4, 1)
        ),
        None,
    ) or run_comparison(4, 1, PROTOCOL_BASIC)
    # BASIC's peer proofs ride batch jobs (one task per share batch), and
    # the pipelined sessions actually consumed their prefetched shares.
    assert record["pool"]["batch_jobs"] > 0
    assert record["pool"]["pipeline"]["used"] == SESSIONS
    # The coordinator batches identically under both planes — the serial
    # leg just runs each batch inline — so the verified-share volume (and
    # hence the charged op log) matches exactly.
    assert record["serial"]["batched_items"] == record["pool"]["batched_items"]


def teardown_module(module):
    if _results:
        _results["environment"] = {
            "cpu_count": os.cpu_count(),
            "pool_workers": POOL_WORKERS,
            "note": (
                "model_speedup compares WorkerClock makespans in Table 3 "
                "reference seconds; wall_clock_s is the real elapsed time "
                "on this host and stays ~flat on single-core runners."
            ),
        }
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
