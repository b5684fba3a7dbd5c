"""Signed-answer cache: hits, invalidation, and signing-round reuse.

The cache memoizes complete response wires (and, in A3 mode, the
assembled threshold signature) keyed by ``(query wire minus its id, zone
serial)``.  Repeated identical queries must be answered without parsing
the query, another zone lookup or a distributed signing round; any update
that changes zone data bumps the serial and must invalidate every entry.
"""

from repro.config import ServiceConfig
from repro.core.replica import canonical_response_wire
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.message import Message, make_query
from repro.dns.name import Name
from repro.sim.machines import lan_setup


def make_service(n=4, t=1, **config_extra):
    config = ServiceConfig(n=n, t=t, **config_extra)
    return ReplicatedNameService(config, topology=lan_setup(n))


def cache_hits(svc):
    return sum(r.stats["answer_cache_hits"] for r in svc.replicas)


def cache_misses(svc):
    return sum(r.stats["answer_cache_misses"] for r in svc.replicas)


class TestAnswerCache:
    def test_repeated_query_hits_cache(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        assert cache_misses(svc) >= 1
        assert cache_hits(svc) == 0
        svc.query("www.example.com.", c.TYPE_A)
        assert cache_hits(svc) >= 1

    def test_cached_answer_is_byte_identical_modulo_msg_id(self):
        svc = make_service()
        op1 = svc.query("www.example.com.", c.TYPE_A)
        op2 = svc.query("www.example.com.", c.TYPE_A)
        assert op1.verified and op2.verified
        assert canonical_response_wire(
            op1.response.to_wire()
        ) == canonical_response_wire(op2.response.to_wire())
        assert op1.response.msg_id != op2.response.msg_id

    def test_different_question_misses(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        svc.query("ns1.example.com.", c.TYPE_A)
        assert cache_hits(svc) == 0

    def test_update_invalidates_cache(self):
        svc = make_service()
        op1 = svc.query("www.example.com.", c.TYPE_A)
        old = {
            rr.rdata.address for rr in op1.response.answers if rr.rtype == c.TYPE_A
        }
        assert old == {"192.0.2.80"}
        svc.add_record("www.example.com.", c.TYPE_A, 3600, "192.0.2.81")
        op2 = svc.query("www.example.com.", c.TYPE_A)
        new = {
            rr.rdata.address for rr in op2.response.answers if rr.rtype == c.TYPE_A
        }
        # The re-query must see the freshly signed RRset, not the stale wire.
        assert new == {"192.0.2.80", "192.0.2.81"}
        assert op2.verified
        assert svc.states_consistent()

    def test_delete_invalidates_cache(self):
        svc = make_service()
        svc.add_record("tmp.example.com.", c.TYPE_A, 300, "192.0.2.9")
        op1 = svc.query("tmp.example.com.", c.TYPE_A)
        assert op1.response.rcode == c.RCODE_NOERROR
        svc.delete_name("tmp.example.com.")
        op2 = svc.query("tmp.example.com.", c.TYPE_A)
        assert op2.response.rcode == c.RCODE_NXDOMAIN
        assert svc.states_consistent()

    def test_cache_can_be_disabled(self):
        svc = make_service(answer_cache=False)
        svc.query("www.example.com.", c.TYPE_A)
        svc.query("www.example.com.", c.TYPE_A)
        assert cache_hits(svc) == 0
        assert cache_misses(svc) == 0


class TestRawQueryKey:
    """The key is the query's bytes after its id: a hit parses nothing."""

    def test_hit_builds_no_message(self, monkeypatch):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        svc.settle()
        decoded = []
        real = Message.from_wire.__func__

        def counting(cls, data):
            decoded.append(data)
            return real(cls, data)

        monkeypatch.setattr(Message, "from_wire", classmethod(counting))
        hits = cache_hits(svc)
        op = svc.query("www.example.com.", c.TYPE_A)
        svc.settle()
        assert op.verified
        assert cache_hits(svc) - hits == 4  # every replica answered from cache
        # The only decode left is the client's, of the answer it accepts.
        assert len(decoded) == 1 and decoded[0][2] & 0x80  # QR: a response

    def test_case_flag_and_class_variants_get_their_own_answers(self):
        svc = make_service()
        replica = svc.replicas[1]
        answers = []
        replica._respond = lambda rid, client, wire, threshold_sig=b"": answers.append(
            Message.from_wire(wire)
        )
        plain = make_query(Name.from_text("www.example.com."), c.TYPE_A)
        upper = make_query(Name.from_text("WWW.Example.COM."), c.TYPE_A)
        recursive = make_query(Name.from_text("www.example.com."), c.TYPE_A)
        recursive.set_flag(c.FLAG_RD)
        status = make_query(Name.from_text("www.example.com."), c.TYPE_A)
        status.opcode = 2  # STATUS: not implemented here
        other_class = make_query(
            Name.from_text("www.example.com."), c.TYPE_A, rclass=c.CLASS_NONE
        )
        variants = [plain, upper, recursive, status, other_class]
        for round_ in range(2):
            for query in variants:
                query.msg_id = round_
                replica._execute_query("rid", 0, query.to_wire())
        assert replica.stats["answer_cache_misses"] == len(variants)
        assert replica.stats["answer_cache_hits"] == len(variants)
        first, repeat = answers[: len(variants)], answers[len(variants):]
        assert [answer.rcode for answer in first] == [
            c.RCODE_NOERROR, c.RCODE_NOERROR, c.RCODE_NOERROR,
            c.RCODE_NOTIMP, c.RCODE_REFUSED,
        ]
        for query, miss, hit in zip(variants, first, repeat, strict=True):
            # The question section echoes each query as asked, case included.
            for answer in (miss, hit):
                assert answer.questions[0].name.to_text() == query.questions[0].name.to_text()
                assert answer.questions[0].rclass == query.questions[0].rclass
            assert hit.msg_id == 1
            assert canonical_response_wire(miss.to_wire()) == canonical_response_wire(
                hit.to_wire()
            )


class TestSignEveryResponse:
    """A3 mode: the cache must also reuse assembled threshold signatures."""

    def test_repeat_query_starts_no_new_signing_round(self):
        svc = make_service(sign_every_response=True)
        op1 = svc.query("www.example.com.", c.TYPE_A)
        assert op1.response.rcode == c.RCODE_NOERROR
        rounds = svc.total_signing_rounds()
        assert rounds >= 1
        op2 = svc.query("www.example.com.", c.TYPE_A)
        assert op2.response.rcode == c.RCODE_NOERROR
        assert svc.total_signing_rounds() == rounds
        assert cache_hits(svc) >= 1

    def test_cached_signature_verifies_under_zone_key(self):
        svc = make_service(sign_every_response=True)
        svc.query("www.example.com.", c.TYPE_A)
        svc.settle()
        checked = 0
        for replica in svc.honest_replicas():
            for _key, entry in replica._answer_cache.items():
                if entry.signature:
                    svc.deployment.zone_public.verify_signature(
                        entry.wire, entry.signature
                    )
                    checked += 1
        assert checked >= 1

    def test_update_forces_fresh_signature(self):
        svc = make_service(sign_every_response=True)
        op1 = svc.query("www.example.com.", c.TYPE_A)
        svc.add_record("www.example.com.", c.TYPE_A, 3600, "192.0.2.81")
        rounds = svc.total_signing_rounds()
        op2 = svc.query("www.example.com.", c.TYPE_A)
        # The serial moved, so the cached signed wire must not be reused.
        assert svc.total_signing_rounds() > rounds
        new = {
            rr.rdata.address for rr in op2.response.answers if rr.rtype == c.TYPE_A
        }
        assert "192.0.2.81" in new
        assert canonical_response_wire(
            op1.response.to_wire()
        ) != canonical_response_wire(op2.response.to_wire())
        assert svc.states_consistent()


class TestPerNameInvalidation:
    """Updates invalidate only entries related to the touched names.

    The cache key carries the zone serial, so every update re-keys the
    surviving entries; what matters is that entries for *unrelated* names
    survive (no re-lookup, no new signing round) while entries touching
    the updated names — and volatile entries like negative answers — drop.
    """

    def test_hot_entry_survives_unrelated_update(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        hits_before = cache_hits(svc)
        svc.add_record("other.example.com.", c.TYPE_A, 300, "192.0.2.50")
        op = svc.query("www.example.com.", c.TYPE_A)
        # The www entry was re-keyed to the new serial, not dropped.
        assert cache_hits(svc) > hits_before
        assert op.verified
        assert sum(r.stats["answer_cache_retained"] for r in svc.replicas) > 0

    def test_hot_entry_survives_without_new_signing_round(self):
        svc = make_service(sign_every_response=True)
        svc.query("www.example.com.", c.TYPE_A)
        svc.settle()
        rounds = svc.total_signing_rounds()
        svc.add_record("other.example.com.", c.TYPE_A, 300, "192.0.2.50")
        svc.settle()
        rounds_after_update = svc.total_signing_rounds()
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        # The hot read reused its cached threshold signature: the update
        # itself signs (SOA/affected RRsets) but the re-read must not.
        assert svc.total_signing_rounds() == rounds_after_update
        assert rounds_after_update > rounds  # sanity: updates do sign

    def test_updated_name_is_invalidated(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        svc.add_record("www.example.com.", c.TYPE_A, 300, "192.0.2.81")
        op = svc.query("www.example.com.", c.TYPE_A)
        addresses = {
            rr.rdata.address for rr in op.response.answers if rr.rtype == c.TYPE_A
        }
        assert "192.0.2.81" in addresses
        assert sum(r.stats["answer_cache_invalidated"] for r in svc.replicas) > 0

    def test_negative_answer_invalidated_when_name_added(self):
        svc = make_service()
        miss = svc.query("new.example.com.", c.TYPE_A)
        assert miss.response.rcode == c.RCODE_NXDOMAIN
        svc.add_record("unrelated.example.com.", c.TYPE_A, 300, "192.0.2.60")
        svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.61")
        hit = svc.query("new.example.com.", c.TYPE_A)
        # The cached NXDOMAIN (volatile: carries the SOA) must not be
        # replayed once the name exists.
        assert hit.response.rcode == c.RCODE_NOERROR
        assert svc.states_consistent()

    def test_subtree_delete_invalidates_descendants(self):
        svc = make_service()
        svc.add_record("a.sub.example.com.", c.TYPE_A, 300, "192.0.2.70")
        op = svc.query("a.sub.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        svc.delete_name("a.sub.example.com.")
        gone = svc.query("a.sub.example.com.", c.TYPE_A)
        assert gone.response.rcode == c.RCODE_NXDOMAIN
        assert svc.states_consistent()
