"""Span recorder and the harness-side wrappers around each layer's surface.

Nothing in ``src/`` records spans: :func:`install` replaces, on the live
objects of one service, the bound methods the table in README.md lists
with timing wrappers, and :meth:`Tracer.uninstall` puts them back.
``Message.from_wire`` / ``Message.to_wire`` and the two ``dnssec``
functions cannot be wrapped per instance (a classmethod, and module
functions called as ``dnssec.f``), so those four are patched on the class
and the module for the length of the traced phase.

Every wrapped call runs synchronously on the one event-loop thread, so a
stack gives each span its parent.  A span's *self* time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broadcast.abc import derive_request_id
from repro.broadcast.messages import ClientRequest, WrapperSigning
from repro.core.replica import encode_request
from repro.crypto.costmodel import CostModel
from repro.crypto.protocols import (
    OP_ASSEMBLE,
    OP_GENERATE_PROOF,
    OP_GENERATE_SHARE,
    OP_VERIFY_SHARE,
    OP_VERIFY_SIGNATURE,
)
from repro.dns import dnssec
from repro.dns.message import Message

#: name, unit, better — the ``per_layer`` list of BENCHMARK.json, in order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("net.msgs_per_op", "count", "lower"),
    ("net.transmit_ms_per_op", "ms", "lower"),
    ("replica.busy_ms_per_op", "ms", "lower"),
    ("replica.self_ms_per_op", "ms", "lower"),
    ("replica.leader_busy_frac", "ratio", "lower"),
    ("replica.answer_cache_hit_ratio", "ratio", "higher"),
    ("replica.answer_cache_invalidated_per_update", "count", "lower"),
    ("abc.self_ms_per_op", "ms", "lower"),
    ("abc.order_ms", "ms", "lower"),
    ("abc.slots_per_op", "count", "lower"),
    ("abc.epoch_changes", "count", "lower"),
    ("batch.wait_ms", "ms", "lower"),
    ("batch.payloads_per_flush", "count", "higher"),
    ("batch.size_flush_ratio", "ratio", "higher"),
    ("auth.sign_ms_per_op", "ms", "lower"),
    ("auth.sign_calls_per_op", "count", "lower"),
    ("auth.verify_ms_per_op", "ms", "lower"),
    ("auth.verify_sigs_per_op", "count", "lower"),
    ("sign.sessions_per_update", "count", "lower"),
    ("sign.session_ms", "ms", "lower"),
    ("sign.coordinator_self_ms_per_update", "ms", "lower"),
    ("sign.dropped_msgs", "count", "lower"),
    ("sign.prefetch_used_ratio", "ratio", "higher"),
    ("sign.share_gen_ms_per_update", "ms", "lower"),
    ("sign.share_gen_calls_per_update", "count", "lower"),
    ("sign.proof_gen_ms_per_update", "ms", "lower"),
    ("sign.share_verify_ms_per_update", "ms", "lower"),
    ("sign.share_verify_calls_per_update", "count", "lower"),
    ("sign.assemble_ms_per_update", "ms", "lower"),
    ("sign.assemble_trials_per_update", "count", "lower"),
    ("sign.sig_verify_ms_per_update", "ms", "lower"),
    ("model.shape_spread", "ratio", "lower"),
    ("dns.decode_ms_per_op", "ms", "lower"),
    ("dns.decode_calls_per_op", "count", "lower"),
    ("dns.encode_ms_per_op", "ms", "lower"),
    ("dns.encode_calls_per_op", "count", "lower"),
    ("server.lookup_ms_per_op", "ms", "lower"),
    ("server.lookup_calls_per_op", "count", "lower"),
    ("update.apply_ms_per_update", "ms", "lower"),
    ("dnssec.plan_ms_per_update", "ms", "lower"),
    ("dnssec.attach_ms_per_update", "ms", "lower"),
    ("dnssec.tasks_per_update", "count", "lower"),
    ("client.build_ms_per_op", "ms", "lower"),
    ("client.accept_ms_per_op", "ms", "lower"),
    ("client.retries", "count", "lower"),
    ("budget.accounted_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Table 3 operations: span name -> the cost-model ops one work unit is
#: charged (an OptTE subset trial assembles, then verifies the result).
_MODEL_OPS = {
    "executor.generate_share": (OP_GENERATE_SHARE,),
    "executor.generate_proof": (OP_GENERATE_PROOF,),
    "executor.verify_shares": (OP_VERIFY_SHARE,),
    "executor.assemble": (OP_ASSEMBLE,),
    "executor.assemble_candidates": (OP_ASSEMBLE, OP_VERIFY_SIGNATURE),
    "executor.verify_signature": (OP_VERIFY_SIGNATURE,),
}

_EXECUTOR_METHODS = (
    "generate_share", "generate_proof", "verify_shares",
    "assemble", "assemble_candidates", "verify_signature",
)


class _Total:
    """Calls, work units, inclusive and self seconds of one span name."""

    __slots__ = ("calls", "units", "inclusive", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.units = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class Tracer:
    """In-memory span store plus the undo list of installed wrappers."""

    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, request id or None)
        self.spans: List[Optional[Tuple[str, float, float, int, Optional[str]]]] = []
        self.totals: Dict[str, _Total] = defaultdict(_Total)
        self.root_seconds = 0.0
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[list] = []   # [span index, child seconds, request id]
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable[..., Optional[str]]] = None,
        units: Optional[Callable[[tuple, Any], int]] = None,
        after: Optional[Callable[[float, float, tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as a span called ``name``.

        ``rid_of(*args)`` names the request the call belongs to (``None``:
        the parent span's; children inherit it); ``units(args, result)``
        counts the work items of one call; ``after(start, end, args,
        result)`` runs once it returned.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        total = self.totals[name]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rid = rid_of(*args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[2]
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, rid]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent[0] if parent else -1, rid)
                total.calls += 1
                total.inclusive += duration
                total.self_time += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    self.root_seconds += duration
                if units is not None:
                    total.units += units(args, result)
                if after is not None:
                    after(start, end, args, result)

        return traced

    def patch(
        self, obj: Any, attr: str, name: str, fn: Optional[Callable] = None, **hooks: Any
    ) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute.

        ``fn`` replaces the callable that is timed (default: the current
        ``obj.attr``).  :meth:`uninstall` removes the shadow, or puts the
        previous value back if ``attr`` already was an instance attribute.
        """
        shadowed = vars(obj).get(attr)
        setattr(obj, attr, self.wrap(name, fn or getattr(obj, attr), **hooks))
        if shadowed is None:
            self._undo.append(lambda: delattr(obj, attr))
        else:
            self._undo.append(lambda: setattr(obj, attr, shadowed))

    def replace(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        """Swap a class or module attribute; restored on :meth:`uninstall`."""
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, rid = span
                rid_text = "null" if rid is None else f'"{rid}"'
                out.write(
                    f'{{"id":{index},"name":"{name}","start":{start - origin:.7f},'
                    f'"end":{end - origin:.7f},"parent":{parent},"rid":{rid_text}}}\n'
                )


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerProbe:
    """Installs the wrappers on one service and turns spans into metrics."""

    def __init__(self, service: Any, clients: List[Any], gateway_of: Dict[int, int]) -> None:
        self.service = service
        self.clients = clients
        self.gateway_of = gateway_of     # client node id -> gateway replica
        self.tracer = Tracer()
        self._order_start: Dict[str, Tuple[int, float]] = {}
        self._delivered_seen = [len(r.delivered_requests) for r in service.replicas]
        self._batch_appended: List[float] = []
        self._session_start: Dict[Tuple[int, str], float] = {}
        self._counters_before = self._counters()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tracer = self.tracer
        tracer.patch(
            self.service.net, "transmit", "net.transmit",
            rid_of=lambda src, dest, payload: (
                derive_request_id(encode_request(src, payload.wire))
                if isinstance(payload, ClientRequest) else None
            ),
        )
        for replica in self.service.replicas:
            self._install_replica(replica)
        for client in self.clients:
            tracer.patch(
                client.node, "handler", "client.accept",
                rid_of=lambda sender, msg: getattr(msg, "request_id", None),
            )
            tracer.patch(client, "build_query_wire", "client.build")
            tracer.patch(client, "build_update_wire", "client.build")

        decode = tracer.wrap("dns.decode", Message.__dict__["from_wire"].__func__)
        tracer.replace(Message, "from_wire", Message.__dict__["from_wire"], classmethod(decode))
        to_wire = Message.__dict__["to_wire"]
        tracer.replace(Message, "to_wire", to_wire, tracer.wrap("dns.encode", to_wire))
        plan = dnssec.signing_tasks_for_update
        tracer.replace(
            dnssec, "signing_tasks_for_update", plan,
            tracer.wrap("dnssec.plan", plan, units=lambda args, tasks: len(tasks or ())),
        )
        attach = dnssec.attach_signature
        tracer.replace(dnssec, "attach_signature", attach, tracer.wrap("dnssec.attach", attach))

    def _install_replica(self, replica: Any) -> None:
        tracer = self.tracer
        index = replica.index

        def rid_of(sender: int, msg: object) -> Optional[str]:
            if isinstance(msg, ClientRequest):
                return derive_request_id(encode_request(sender, msg.wire))
            if isinstance(msg, WrapperSigning):
                pending = replica._pending_update
                return pending.request_id if pending is not None else None
            return getattr(msg, "request_id", None)

        def after_handle(start: float, end: float, args: tuple, _result: Any) -> None:
            sender, msg = args
            if isinstance(msg, ClientRequest):
                rid = derive_request_id(encode_request(sender, msg.wire))
                self._order_start.setdefault(rid, (index, start))
            delivered = replica.delivered_requests
            seen = self._delivered_seen[index]
            if len(delivered) > seen:
                for rid in delivered[seen:]:
                    entry = self._order_start.get(rid)
                    if entry is not None and entry[0] == index:
                        del self._order_start[rid]
                        tracer.samples["abc.order"].append(end - entry[1])
                self._delivered_seen[index] = len(delivered)

        tracer.patch(
            replica.node, "handler", f"replica.handle.{index}",
            rid_of=rid_of, after=after_handle,
        )
        abc = replica.abc
        tracer.patch(abc, "a_broadcast", "abc.a_broadcast")
        tracer.patch(abc, "on_message", "abc.on_message")
        tracer.patch(abc.crypto, "sign", "auth.sign")
        tracer.patch(abc.crypto, "verify", "auth.verify", units=lambda args, _r: 1)
        tracer.patch(
            abc.crypto, "verify_many", "auth.verify",
            units=lambda args, _r: len(args[0]),
        )
        queue = replica.batch_queue
        if queue is not None:
            append = queue.append
            flush = queue.flush

            def timed_append(payload: bytes) -> None:
                self._batch_appended.append(time.perf_counter())
                append(payload)

            def timed_flush(reason: str = "explicit") -> None:
                now = time.perf_counter()
                tracer.samples["batch.wait"].extend(now - t for t in self._batch_appended)
                self._batch_appended.clear()
                flush(reason=reason)

            tracer.patch(queue, "append", "batch.append", fn=timed_append)
            tracer.patch(queue, "flush", "batch.flush", fn=timed_flush)

        coordinator = replica.coordinator

        def after_sign(start: float, _end: float, args: tuple, _result: Any) -> None:
            pending = replica._pending_update
            if pending is not None and self.gateway_of.get(pending.client) == index:
                self._session_start.setdefault((index, args[0]), start)

        def after_result(_start: float, end: float, args: tuple, result: Any) -> None:
            if result is not None:
                begun = self._session_start.pop((index, args[0]), None)
                if begun is not None:
                    tracer.samples["sign.session"].append(end - begun)

        tracer.patch(coordinator, "sign", "coordinator.sign", after=after_sign)
        tracer.patch(coordinator, "on_message", "coordinator.on_message")
        tracer.patch(coordinator, "result", "coordinator.result", after=after_result)
        for method in _EXECUTOR_METHODS:
            hooks: Dict[str, Any] = {}
            if method == "verify_shares":
                hooks["units"] = lambda args, _r: len(args[1])
            elif method == "assemble_candidates":
                hooks["units"] = lambda args, trial: trial.assembled if trial else 0
            tracer.patch(coordinator.executor, method, f"executor.{method}", **hooks)
        tracer.patch(replica.server, "handle_query", "server.lookup")
        tracer.patch(replica.processor, "respond", "update.apply")

    # -- counters the layers keep themselves -----------------------------------

    def _counters(self) -> Dict[str, float]:
        service = self.service
        honest = [r for r in service.replicas if not r.fault.is_corrupted]
        out: Dict[str, float] = defaultdict(float)
        out["net.messages"] = service.net.messages_sent
        out["abc.slots"] = service.replicas[0].abc.next_deliver
        out["abc.epoch"] = max(r.abc.epoch for r in service.replicas)
        out["client.retries"] = sum(op.retries for c in self.clients for op in c.completed)
        for replica in honest:
            for key in ("answer_cache_hits", "answer_cache_misses", "answer_cache_invalidated"):
                out[key] += replica.stats[key]
            out["rounds_started"] += replica.coordinator.rounds_started
            out["dropped_messages"] += replica.coordinator.dropped_messages
            for key in ("prefetched", "used"):
                out["prefetch." + key] += replica.coordinator.pipeline_stats[key]
            if replica.batch_queue is not None:
                for key in ("flushes", "flushed_requests", "size_flushes"):
                    out["batch." + key] += replica.batch_queue.stats[key]
        out["honest"] = len(honest)
        return out

    # -- metrics -----------------------------------------------------------------

    def metrics(
        self, ops: int, updates: int, wall: float, traced_rate: float, untraced_rate: float
    ) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric of the traced phase.

        Times are summed over all nodes (everything shares one thread, so
        the sum is what an op costs the process), then divided by the ops
        (or updates) the phase completed.  Metrics of a layer the workload
        never enters are 0.
        """
        totals = self.tracer.totals
        before, now = self._counters_before, self._counters()
        delta: Dict[str, float] = defaultdict(float)
        delta.update({key: now[key] - before.get(key, 0.0) for key in now})
        honest = now["honest"]

        def ms(names: Tuple[str, ...], per: int, field: str = "self_time") -> float:
            return _ratio(1000.0 * sum(getattr(totals[n], field) for n in names), per)

        def count(names: Tuple[str, ...], per: int, field: str = "calls") -> float:
            return _ratio(sum(getattr(totals[n], field) for n in names), per)

        handles = tuple(f"replica.handle.{r.index}" for r in self.service.replicas)
        abc_spans = ("abc.a_broadcast", "abc.on_message", "batch.append", "batch.flush")
        coordinator = ("coordinator.sign", "coordinator.on_message", "coordinator.result")
        assemble = ("executor.assemble", "executor.assemble_candidates")
        trials = totals["executor.assemble"].calls + totals["executor.assemble_candidates"].units

        model = CostModel()
        shapes = [
            totals[span].inclusive / max(1, totals[span].units or totals[span].calls)
            / sum(model.crypto_cost(op) for op in ops)
            for span, ops in _MODEL_OPS.items()
            if totals[span].calls
        ]

        values = {
            "net.msgs_per_op": _ratio(delta["net.messages"], ops),
            "net.transmit_ms_per_op": ms(("net.transmit",), ops),
            "replica.busy_ms_per_op": ms(handles, ops, "inclusive"),
            "replica.self_ms_per_op": ms(handles, ops),
            "replica.leader_busy_frac": _ratio(totals[handles[0]].inclusive, wall),
            "replica.answer_cache_hit_ratio": _ratio(
                delta["answer_cache_hits"],
                delta["answer_cache_hits"] + delta["answer_cache_misses"],
            ),
            "replica.answer_cache_invalidated_per_update": _ratio(
                delta["answer_cache_invalidated"], honest * updates
            ),
            "abc.self_ms_per_op": ms(abc_spans, ops),
            "abc.order_ms": 1000.0 * _median(self.tracer.samples["abc.order"]),
            "abc.slots_per_op": _ratio(delta["abc.slots"], ops),
            "abc.epoch_changes": now["abc.epoch"],
            "batch.wait_ms": 1000.0 * _median(self.tracer.samples["batch.wait"]),
            "batch.payloads_per_flush": _ratio(
                delta["batch.flushed_requests"], delta["batch.flushes"]
            ),
            "batch.size_flush_ratio": _ratio(delta["batch.size_flushes"], delta["batch.flushes"]),
            "auth.sign_ms_per_op": ms(("auth.sign",), ops),
            "auth.sign_calls_per_op": count(("auth.sign",), ops),
            "auth.verify_ms_per_op": ms(("auth.verify",), ops),
            "auth.verify_sigs_per_op": count(("auth.verify",), ops, "units"),
            "sign.sessions_per_update": _ratio(delta["rounds_started"], honest * updates),
            "sign.session_ms": 1000.0 * _median(self.tracer.samples["sign.session"]),
            "sign.coordinator_self_ms_per_update": ms(coordinator, updates),
            "sign.dropped_msgs": delta["dropped_messages"],
            "sign.prefetch_used_ratio": _ratio(
                delta["prefetch.used"], delta["prefetch.prefetched"]
            ),
            "sign.share_gen_ms_per_update": ms(("executor.generate_share",), updates),
            "sign.share_gen_calls_per_update": count(("executor.generate_share",), updates),
            "sign.proof_gen_ms_per_update": ms(("executor.generate_proof",), updates),
            "sign.share_verify_ms_per_update": ms(("executor.verify_shares",), updates),
            "sign.share_verify_calls_per_update": count(
                ("executor.verify_shares",), updates, "units"
            ),
            "sign.assemble_ms_per_update": ms(assemble, updates),
            "sign.assemble_trials_per_update": _ratio(trials, updates),
            "sign.sig_verify_ms_per_update": ms(("executor.verify_signature",), updates),
            "model.shape_spread": _ratio(max(shapes), min(shapes)) if shapes else 0.0,
            "dns.decode_ms_per_op": ms(("dns.decode",), ops),
            "dns.decode_calls_per_op": count(("dns.decode",), ops),
            "dns.encode_ms_per_op": ms(("dns.encode",), ops),
            "dns.encode_calls_per_op": count(("dns.encode",), ops),
            "server.lookup_ms_per_op": ms(("server.lookup",), ops),
            "server.lookup_calls_per_op": count(("server.lookup",), ops),
            "update.apply_ms_per_update": ms(("update.apply",), updates),
            "dnssec.plan_ms_per_update": ms(("dnssec.plan",), updates),
            "dnssec.attach_ms_per_update": ms(("dnssec.attach",), updates),
            "dnssec.tasks_per_update": _ratio(
                totals["dnssec.plan"].units, totals["dnssec.plan"].calls
            ),
            "client.build_ms_per_op": ms(("client.build",), ops, "inclusive"),
            "client.accept_ms_per_op": ms(("client.accept",), ops, "inclusive"),
            "client.retries": delta["client.retries"],
            "budget.accounted_frac": _ratio(self.tracer.root_seconds, wall),
            "trace.overhead_frac": 1.0 - _ratio(traced_rate, untraced_rate),
        }
        return {name: values[name] for name, _unit, _better in PER_LAYER}
