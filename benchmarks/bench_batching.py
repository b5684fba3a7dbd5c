"""Throughput benchmark: batched atomic broadcast + signed-answer cache.

Measures sustained request throughput of the replicated service under a
closed-loop multi-client workload, comparing the seed configuration
(one payload per agreement instance, no caching) against the optimized
fast path (SINTRA-style batching plus the signed-answer cache).

Acceptance target: >= 2x request throughput on the read-heavy workload
with batch_size >= 8, and zero additional signing rounds for repeated
identical queries in sign-every-response mode.

Results are also written to ``BENCH_batching.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batching.py -v
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.config import ServiceConfig
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import rdata_from_text
from repro.sim.machines import lan_setup

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_batching.json"

N_CLIENTS = 6
DURATION = 10.0  # simulated seconds of sustained load
BATCH_SIZE = 8

# Read-heavy hot-name workload: a popular name dominates, as in real DNS.
HOT_NAMES = ["www.example.com."] * 8 + ["ns1.example.com.", "ns2.example.com."]

_results: dict = {}


def make_service(batched: bool, **config_extra) -> ReplicatedNameService:
    config = ServiceConfig(
        n=4,
        t=1,
        batch_size=BATCH_SIZE if batched else 1,
        answer_cache=batched,
        **config_extra,
    )
    return ReplicatedNameService(config, topology=lan_setup(4))


def make_clients(svc: ReplicatedNameService, count: int = N_CLIENTS):
    return [svc.client] + [svc.add_client() for _ in range(count - 1)]


def run_closed_loop(svc, clients, duration, names, update_every=0):
    """Each client keeps one request in flight until the deadline.

    ``update_every`` > 0 turns every k-th operation of the first client
    into an nsupdate-style add (the mixed workload).
    """
    sim = svc.net.sim
    end = sim.now + duration
    completed = []
    qnames = [Name.from_text(n) for n in names]
    next_q = itertools.count()
    next_addr = itertools.count(1)

    def issue(client, is_writer):
        seq = next(next_q)

        def cb(op):
            completed.append(op)
            if sim.now < end:
                issue(client, is_writer)

        if is_writer and update_every and seq % update_every == update_every - 1:
            i = next(next_addr)
            rdata_name = Name.from_text(f"load{i}.example.com.")
            rdata = rdata_from_text(c.TYPE_A, [f"192.0.2.{i % 250 + 1}"], svc.zone_origin)
            client.add_record(rdata_name, c.TYPE_A, 300, rdata, cb)
        else:
            client.query(qnames[seq % len(qnames)], c.TYPE_A, cb)

    for idx, client in enumerate(clients):
        issue(client, is_writer=(idx == 0))
    sim.run(until=end)
    return completed


def throughput(completed, duration=DURATION):
    return len(completed) / duration


class TestReadHeavyThroughput:
    def test_batching_doubles_read_throughput(self):
        unbatched = make_service(batched=False)
        base_ops = run_closed_loop(
            unbatched, make_clients(unbatched), DURATION, HOT_NAMES
        )
        base_tput = throughput(base_ops)

        batched = make_service(batched=True)
        fast_ops = run_closed_loop(
            batched, make_clients(batched), DURATION, HOT_NAMES
        )
        fast_tput = throughput(fast_ops)

        assert unbatched.states_consistent()
        assert batched.states_consistent()
        assert all(op.response is not None for op in fast_ops)
        speedup = fast_tput / base_tput
        _results["read_heavy"] = {
            "unbatched_tput": base_tput,
            "batched_tput": fast_tput,
            "batch_size": BATCH_SIZE,
            "clients": N_CLIENTS,
            "duration_sim_s": DURATION,
            "answer_cache_hits": sum(
                r.stats["answer_cache_hits"] for r in batched.replicas
            ),
            "batches_delivered": sum(
                r.stats["batches_delivered"] for r in batched.replicas
            ),
        }
        # The acceptance bar: the fast path at least doubles throughput.
        assert speedup >= 2.0, (
            f"batching+cache speedup {speedup:.2f}x "
            f"({base_tput:.1f} -> {fast_tput:.1f} req/s) below 2x target"
        )


class TestMixedThroughput:
    def test_mixed_workload_improves_and_stays_consistent(self):
        unbatched = make_service(batched=False)
        base_ops = run_closed_loop(
            unbatched, make_clients(unbatched), DURATION, HOT_NAMES,
            update_every=20,
        )
        base_tput = throughput(base_ops)

        batched = make_service(batched=True)
        fast_ops = run_closed_loop(
            batched, make_clients(batched), DURATION, HOT_NAMES,
            update_every=20,
        )
        fast_tput = throughput(fast_ops)

        assert unbatched.states_consistent()
        assert batched.states_consistent()
        base_writes = sum(1 for op in base_ops if op.kind == "add")
        fast_writes = sum(1 for op in fast_ops if op.kind == "add")
        _results["mixed"] = {
            "unbatched_tput": base_tput,
            "batched_tput": fast_tput,
            "unbatched_writes": base_writes,
            "batched_writes": fast_writes,
        }
        # Writes pay for distributed re-signing either way; batching the
        # read traffic around them must still help.  How much is gated
        # per column against the committed baseline (check_regression.py):
        # the leader's own batching speeds the batch_size=1 column up too,
        # so the quotient of the two says little.
        assert fast_tput > base_tput
        assert fast_writes >= 1


class TestSigningRoundReuse:
    def test_repeated_queries_need_no_extra_signing_rounds(self):
        svc = make_service(batched=True, sign_every_response=True)
        first = svc.query("www.example.com.", c.TYPE_A)
        assert first.response.rcode == c.RCODE_NOERROR
        rounds_after_first = svc.total_signing_rounds()
        assert rounds_after_first >= 1
        repeats = 10
        for _ in range(repeats):
            op = svc.query("www.example.com.", c.TYPE_A)
            assert op.response.rcode == c.RCODE_NOERROR
        extra = svc.total_signing_rounds() - rounds_after_first
        _results["signing_round_reuse"] = {
            "rounds_after_first_query": rounds_after_first,
            "repeated_queries": repeats,
            "extra_rounds": extra,
        }
        assert extra == 0, f"{extra} extra signing rounds for repeated queries"


def teardown_module(module):
    if _results:
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
