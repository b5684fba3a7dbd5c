"""Broadcast-plane bandwidth benchmark: ABC's two dissemination lanes.

Drives the atomic broadcast the replicas run (DESIGN.md §5i) over the
deterministic simulator at the big-n target cluster (n=10, t=3) with
4 KiB request payloads, and measures what each lane puts on the wire,
using the per-type/per-link byte ledgers the simulated network keeps
for every transmit:

* **full** — the gateway's INITIATE and the leader's ORDER both carry
  the whole payload to every replica.  This is the baseline lane, not
  a mode of the protocol: the bench's driver re-inflates each digest
  ORDER with its payload before it leaves the leader, and a follower
  takes a full ORDER's payload as it is.
* **digest** — what every replica runs: the ORDER carries the
  payload-derived request id instead; a replica that missed the
  INITIATE pulls the payload.

The gateway is replica 1, not the epoch-0 leader, so INITIATE and ORDER
both reach the wire.  Two shapes: **sequential** submits the next
request once the previous one is delivered everywhere (one request in
flight), **burst** submits all four at once.  In the burst the leader
orders the first request and holds the other three behind it; they go
out as one leader batch frame, and batch frames never entered
``pending``, so that ORDER travels full in every lane.

Headline metrics (gated by ``check_regression.py``):

``sequential.digest_order_reduction`` and ``burst.digest_order_reduction``,
the ORDER-lane bytes of full mode over digest mode, per shape.

The 4 -> 7 -> 10 sweep (sequential shape) is reported, not gated
(DESIGN.md §5i).  Bytes are ``wire_size()`` estimates of the in-process messages, so every
figure here is modelled, not measured on a socket.  Results are written
to ``BENCH_broadcast.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_broadcast.py -v
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.broadcast.abc import AtomicBroadcast, derive_request_id
from repro.broadcast.messages import AbcOrder
from repro.crypto.params import demo_threshold_key
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.machines import lan_setup
from repro.sim.network import SimNetwork

from tests.broadcast.harness import Driven, drive

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_broadcast.json"

TARGET_CLUSTER = (10, 3)
SWEEP = [(4, 1), (7, 2), (10, 3)]
PAYLOAD_SIZE = 4096  # one 4 KiB request
REQUESTS = 4
GATEWAY = 1  # not the epoch-0 leader (replica 0)
SHAPES = ("sequential", "burst")
LANES = ("full", "digest")
#: Authenticator modulus: PREPARE signatures are 64 bytes on the wire.
AUTH_BITS = 512

#: Pytest bars, set below the values measured when the lanes were
#: re-based on ABC (94.1x and 1.33x; BENCH_broadcast.json).
SEQUENTIAL_ORDER_BAR = 50.0
BURST_ORDER_BAR = 1.2

#: Message types that carry request payload data into the cluster.
DISSEMINATION_TYPES = ("AbcInitiate", "AbcOrder", "PayloadPull", "PayloadReply")

_results: dict = {}
_keys: Dict[Tuple[int, int], tuple] = {}


def _cluster_keys(n: int, t: int) -> tuple:
    if (n, t) not in _keys:
        pairs = [generate_rsa_keypair(AUTH_BITS) for _ in range(n)]
        _, coins = demo_threshold_key(n, t, 384)
        _keys[(n, t)] = (pairs, [p.public for p in pairs], coins)
    return _keys[(n, t)]


def _send_full_orders(driven: Driven) -> None:
    """The full lane: every digest ORDER leaves with its payload."""
    send, abc = driven.send, driven.core

    def send_full(dest: int, msg: object) -> None:
        if isinstance(msg, AbcOrder) and msg.payload == b"":
            payload = abc._resolve_payload(msg.request_id)
            if payload is not None:
                msg = AbcOrder(msg.epoch, msg.seq, msg.request_id, payload)
        send(dest, msg)

    driven.send = send_full  # type: ignore[method-assign]


def _run(n: int, t: int, mode: str, shape: str) -> Dict[str, Any]:
    """Submit REQUESTS payloads at the gateway; return the byte ledgers."""
    pairs, pubs, coins = _cluster_keys(n, t)
    net = SimNetwork(lan_setup(n), seed=7, cpu_jitter=0.0)
    drivers = []
    for i in range(n):
        abc = AtomicBroadcast(
            n, t, i,
            auth_key=pairs[i].private,
            auth_public=pubs,
            coin_key=coins[i],
        )
        drivers.append(drive(net.node(i), abc))
        if mode == "full":
            _send_full_orders(drivers[-1])
    replicas = [driven.core for driven in drivers]

    payloads = [bytes([r]) * PAYLOAD_SIZE for r in range(REQUESTS)]
    gateway = drivers[GATEWAY]
    for payload in payloads:
        net.node(GATEWAY).run_local(0.0, lambda p=payload: gateway.submit(p))
        if shape == "sequential":
            net.run()
    net.run()

    rids = [derive_request_id(payload) for payload in payloads]
    for i, abc in enumerate(replicas):
        # delivered_ids also names the members of a leader batch frame.
        missing = [rid for rid in rids if rid not in abc.delivered_ids]
        assert not missing, f"mode={mode} shape={shape} n={n}: replica {i} missed {missing}"
    by_type = net.bytes_by_type
    return {
        "total_bytes": float(net.bytes_sent),
        "per_replica_total_bytes": net.bytes_sent / n,
        "max_link_bytes": float(max(net.bytes_by_link.values())),
        "order_bytes": float(by_type.get("AbcOrder", 0)),
        "dissemination_bytes": float(sum(by_type.get(k, 0) for k in DISSEMINATION_TYPES)),
        "leader_batches": float(replicas[0].stats["rebatches"]),
        "pulls_sent": float(sum(abc.stats["pulls_sent"] for abc in replicas)),
        "bytes_by_type": {k: float(v) for k, v in sorted(by_type.items())},
    }


def _ratio(runs: Dict[str, Dict[str, Any]], metric: str, over: str, under: str) -> float:
    return runs[over][metric] / runs[under][metric]


def test_lanes_at_target_cluster():
    """ORDER-lane reduction of digest over full at (10,3), 4 x 4 KiB, in
    both submission shapes."""
    n, t = TARGET_CLUSTER
    shapes = {
        shape: {mode: _run(n, t, mode, shape) for mode in LANES}
        for shape in SHAPES
    }
    _results["target_cluster"] = {
        "n": n,
        "t": t,
        "payload_size": PAYLOAD_SIZE,
        "requests": REQUESTS,
        "gateway": GATEWAY,
        "shapes": shapes,
    }
    seq, burst = shapes["sequential"], shapes["burst"]
    _results["sequential"] = {
        "digest_order_reduction": _ratio(seq, "order_bytes", "full", "digest"),
    }
    _results["burst"] = {
        "digest_order_reduction": _ratio(burst, "order_bytes", "full", "digest"),
    }
    # One request per slot: every ORDER is a digest frame.
    assert _results["sequential"]["digest_order_reduction"] >= SEQUENTIAL_ORDER_BAR
    # The burst's leader batch frame travels full in every lane.
    assert burst["full"]["leader_batches"] >= 1
    assert _results["burst"]["digest_order_reduction"] >= BURST_ORDER_BAR
    # Nothing here withholds a payload: no lane needs a pull.
    assert all(lane["pulls_sent"] == 0 for s in shapes.values() for lane in s.values())


def test_per_replica_bytes_sweep():
    """Per-replica bytes of both lanes as the cluster grows 4 -> 7 -> 10
    (sequential shape); reported, not gated."""
    sweep: Dict[str, float] = {}
    growth: Dict[str, float] = {}
    for mode in LANES:
        per_replica = []
        for n, t in SWEEP:
            value = _run(n, t, mode, "sequential")["per_replica_total_bytes"]
            per_replica.append(value)
            sweep[f"{mode}(n={n},t={t})"] = value
        growth[mode] = per_replica[-1] / per_replica[0]
    _results["scaling_sweep"] = {
        "clusters": [list(c) for c in SWEEP],
        "shape": "sequential",
        "per_replica_total_bytes": sweep,
        "growth_4_to_10": growth,
    }
    assert all(value > 0 for value in sweep.values())


def teardown_module(module):
    if _results:
        _results["environment"] = {
            "cpu_count": os.cpu_count(),
            "note": (
                "Modelled bytes: wire_size() of each in-process message, "
                "summed by the simulated network's per-type and per-link "
                "ledgers.  AtomicBroadcast at (10,3), 4 x 4 KiB requests "
                "submitted at gateway replica 1 (leader is replica 0), "
                f"{AUTH_BITS}-bit authenticator keys, sim seed 7.  "
                "order_bytes = AbcOrder; max_link_bytes = the busiest "
                "directed link."
            ),
        }
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
