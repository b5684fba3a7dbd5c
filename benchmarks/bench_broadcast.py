"""Broadcast-plane bandwidth benchmark: digest votes and erasure coding.

Drives the reliable-broadcast layer (DESIGN.md §5i) over the
deterministic simulator at the big-n target cluster (n=10, t=3) with
4 KiB batch payloads and measures what each dissemination mode puts on
the wire, using the per-type/per-replica byte ledgers the simulated
network keeps for every transmit:

* **full** — Bracha's original shape: every replica echoes the whole
  payload to everyone, so the echo lane alone carries ``n * (n-1) * |m|``
  bytes per broadcast.
* **digest** — echoes and readies carry a 32-byte digest instead of the
  payload; the payload crosses each link once (SEND), with a pull
  fallback for withholding senders.
* **erasure** — the sender disperses ``n`` Reed-Solomon fragments (any
  ``n - 2t`` reconstruct) with Merkle proofs; no link ever carries the
  whole payload and the per-replica cost stays near-flat as ``n`` grows.

Headline metrics (gated by ``check_regression.py``):

* ``digest_echo_reduction`` / ``erasure_echo_reduction`` — per-replica
  echo-lane traffic of full mode divided by the same measure in
  digest/erasure mode at (10, 3) with 4 KiB payloads.  Acceptance bar:
  >= 5x (in practice ~100x: 32-byte votes vs 4 KiB payload echoes).
* ``erasure_flatness_headroom`` — how much slower erasure-mode
  per-replica bytes grow than full-mode as the cluster scales
  4 -> 7 -> 10 (higher is better; > 1 means flatter).

Results are written to ``BENCH_broadcast.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_broadcast.py -v
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Tuple

from repro.broadcast.rbc import RBC_MODES, ReliableBroadcast
from repro.sim.machines import lan_setup
from repro.sim.network import SimNetwork

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_broadcast.json"

TARGET_CLUSTER = (10, 3)
PAYLOAD_SIZE = 4096  # one 4 KiB batch frame
BATCHES = 4
REDUCTION_BAR = 5.0

#: Message types that make up each mode's echo-vote lane (the all-to-all
#: amplification traffic the digest rewrite shrinks).  READY votes were
#: digest-sized already.
ECHO_TYPES: Dict[str, Tuple[str, ...]] = {
    "full": ("RbcEcho",),
    "digest": ("RbcEchoDigest",),
    # In erasure mode the proof-carrying fragments double as echo votes,
    # so the vote lane carries |m|/(n-2t) per message instead of 32 bytes
    # — its reduction is n-2t-fold, not |m|/32-fold.
    "erasure": ("RbcEchoDigest", "RbcFrag"),
}

#: Message types that carry payload data (the dissemination lane).  In
#: full/digest mode the sender ships the whole payload per link (SEND);
#: in erasure mode each link carries one |m|/(n-2t) fragment (VAL) and
#: each replica forwards its own fragment once (FRAG).
DISSEMINATION_TYPES: Dict[str, Tuple[str, ...]] = {
    "full": ("RbcSend",),
    "digest": ("RbcSend", "PayloadReply"),
    "erasure": ("RbcVal", "RbcFrag", "PayloadReply"),
}

_results: dict = {}


def _run_mode(n: int, t: int, mode: str) -> Dict[str, float]:
    """Broadcast BATCHES payloads in ``mode``; return the byte ledgers."""
    net = SimNetwork(lan_setup(n), seed=7, cpu_jitter=0.0)
    delivered: Dict[int, Dict[str, bytes]] = {i: {} for i in range(n)}
    nodes = []
    for i in range(n):
        rbc = ReliableBroadcast(
            n,
            t,
            i,
            deliver=lambda sid, payload, i=i: delivered[i].__setitem__(sid, payload),
            mode=mode,
            schedule=net.node(i).schedule_timer,
            emit=(
                lambda outs, i=i: [
                    net.node(i).send(dest, m)
                    for dest, m in outs
                    if dest != i
                ]
            ),
        )
        nodes.append(rbc)

        def handler(sender, msg, rbc=rbc, i=i):
            for dest, out in rbc.on_message(sender, msg):
                if dest == -1:
                    for peer in range(n):
                        if peer != i:
                            net.node(i).send(peer, out)
                elif dest != i:
                    net.node(i).send(dest, out)

        net.node(i).set_handler(handler)

    payloads = {
        f"batch-{b}": bytes([b]) * PAYLOAD_SIZE for b in range(BATCHES)
    }
    # One gateway disseminates every batch (the deployment shape: clients
    # talk to one replica, §3.4) so the sender-link hotspot is visible.
    for sid, payload in payloads.items():
        sender = 0
        for dest, out in nodes[sender].broadcast(sid, payload):
            if dest == -1:
                for peer in range(n):
                    if peer != sender:
                        net.node(sender).send(peer, out)
            elif dest != sender:
                net.node(sender).send(dest, out)
    net.run()

    for i in range(n):
        assert delivered[i] == payloads, (
            f"mode={mode} n={n} replica {i} delivered "
            f"{sorted(delivered[i])} != {sorted(payloads)}"
        )
    echo_bytes = sum(net.bytes_by_type.get(mt, 0) for mt in ECHO_TYPES[mode])
    dissemination_bytes = sum(
        net.bytes_by_type.get(mt, 0) for mt in DISSEMINATION_TYPES[mode]
    )
    return {
        "total_bytes": float(net.bytes_sent),
        "echo_bytes": float(echo_bytes),
        "dissemination_bytes": float(dissemination_bytes),
        "per_replica_echo_bytes": echo_bytes / n,
        "per_replica_total_bytes": net.bytes_sent / n,
        "max_link_bytes": float(max(net.bytes_by_link.values())),
        "bytes_by_type": {k: float(v) for k, v in sorted(net.bytes_by_type.items())},
    }


def test_echo_reduction_at_target_cluster():
    """Digest votes cut per-replica echo traffic >= 5x at (10,3), 4 KiB."""
    n, t = TARGET_CLUSTER
    by_mode = {mode: _run_mode(n, t, mode) for mode in RBC_MODES}
    full_echo = by_mode["full"]["per_replica_echo_bytes"]
    reductions = {}
    for mode in ("digest", "erasure"):
        reductions[mode] = full_echo / by_mode[mode]["per_replica_echo_bytes"]
    _results["target_cluster"] = {
        "n": n,
        "t": t,
        "payload_size": PAYLOAD_SIZE,
        "batches": BATCHES,
        "modes": by_mode,
    }
    _results["digest_echo_reduction"] = reductions["digest"]
    _results["erasure_echo_reduction"] = reductions["erasure"]
    assert reductions["digest"] >= REDUCTION_BAR, (
        f"digest mode reduced per-replica echo bytes only "
        f"{reductions['digest']:.1f}x (< {REDUCTION_BAR}x) at n={n} with "
        f"{PAYLOAD_SIZE}-byte payloads"
    )
    # Erasure's vote lane carries fragments, so its reduction is bounded
    # by n-2t (times proof overhead), not |m|/32 — but it must still beat
    # full-payload echoes comfortably.
    assert reductions["erasure"] >= 2.0, (
        f"erasure mode reduced per-replica echo bytes only "
        f"{reductions['erasure']:.1f}x at n={n}"
    )
    # Digest mode also shrinks *total* traffic: votes dominate Bracha.
    assert (
        by_mode["digest"]["total_bytes"] < by_mode["full"]["total_bytes"]
    ), "digest mode did not reduce total broadcast traffic"
    # Erasure mode removes the whole-payload link hotspot: its busiest
    # link carries less than one full payload per batch, where full and
    # digest mode ship |m| per sender link.
    assert (
        by_mode["erasure"]["max_link_bytes"]
        < by_mode["digest"]["max_link_bytes"]
    ), "erasure mode did not shrink the busiest link"
    _results["erasure_max_link_bytes_per_batch"] = (
        by_mode["erasure"]["max_link_bytes"] / BATCHES
    )


def test_erasure_per_replica_bytes_near_flat():
    """Erasure-mode per-replica bytes stay near-flat as n grows."""
    clusters: List[Tuple[int, int]] = [(4, 1), (7, 2), (10, 3)]
    growth = {}
    sweep = {}
    for mode in ("full", "erasure"):
        per_replica = []
        for n, t in clusters:
            result = _run_mode(n, t, mode)
            per_replica.append(result["per_replica_total_bytes"])
            sweep[f"{mode}(n={n},t={t})"] = result["per_replica_total_bytes"]
        growth[mode] = per_replica[-1] / per_replica[0]
    _results["scaling_sweep"] = {
        "clusters": [list(c) for c in clusters],
        "per_replica_total_bytes": sweep,
        "growth_4_to_10": growth,
    }
    # Full mode's per-replica cost grows ~linearly with n (payload echo
    # to every peer); erasure's fragment size shrinks as 1/(n-2t) while
    # fan-out grows with n, so the product stays nearly constant.
    headroom = growth["full"] / growth["erasure"]
    _results["erasure_flatness_headroom"] = headroom
    assert growth["erasure"] < 2.0, (
        f"erasure per-replica bytes grew {growth['erasure']:.2f}x from "
        f"n=4 to n=10 — not near-flat"
    )
    assert headroom > 1.2, (
        f"erasure scaling headroom over full mode is only {headroom:.2f}x"
    )


def teardown_module(module):
    if _results:
        _results["environment"] = {
            "cpu_count": os.cpu_count(),
            "note": (
                "per_replica_echo_bytes = echo-lane bytes / n measured by "
                "the simulated network's per-type ledgers; echo lane is "
                "RbcEcho (full), RbcEchoDigest (digest), RbcEchoDigest+"
                "RbcFrag (erasure).  Reductions compare full mode against "
                "digest/erasure at (10,3) with 4 KiB batch payloads."
            ),
        }
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
