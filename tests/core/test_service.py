"""End-to-end replicated name service tests (the paper's whole system)."""

import pytest

from repro.config import ServiceConfig
from repro.core.faults import CorruptionMode
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.name import Name
from repro.sim.machines import lan_setup, paper_setup


def make_service(n=4, t=1, k=0, proto="optte", **kwargs):
    kwargs.setdefault("topology", lan_setup(n) if n <= 4 else paper_setup(n))
    svc = ReplicatedNameService(
        ServiceConfig(n=n, t=t, signing_protocol=proto, **kwargs.pop("config_extra", {})),
        **kwargs,
    )
    if k:
        svc.corrupt_paper_style(k)
    return svc


class TestReads:
    def test_query_answers_correctly(self):
        svc = make_service()
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        addresses = {
            rr.rdata.address for rr in op.response.answers if rr.rtype == c.TYPE_A
        }
        assert addresses == {"192.0.2.80"}

    def test_read_response_carries_verifiable_sigs(self):
        svc = make_service()
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.verified  # zone signatures check out at the client

    def test_nxdomain_propagates(self):
        svc = make_service()
        op = svc.query("missing.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NXDOMAIN

    def test_read_does_not_change_state(self):
        svc = make_service()
        before = svc.zone_digests()
        svc.query("www.example.com.", c.TYPE_A)
        assert svc.zone_digests() == before


class TestWrites:
    def test_add_visible_on_all_replicas(self):
        svc = make_service()
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR
        assert svc.states_consistent()
        for replica in svc.replicas:
            from repro.dns.name import Name

            assert replica.zone.find_rrset(
                Name.from_text("new.example.com."), c.TYPE_A
            ) is not None

    def test_add_then_read_returns_new_data(self):
        svc = make_service()
        svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        op = svc.query("new.example.com.", c.TYPE_A)
        assert op.response.answers
        assert op.verified

    def test_delete_visible_on_all_replicas(self):
        svc = make_service()
        svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        svc.delete_name("new.example.com.")
        op = svc.query("new.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NXDOMAIN
        assert svc.states_consistent()

    def test_zone_signatures_valid_after_updates(self):
        svc = make_service()
        svc.add_record("a.example.com.", c.TYPE_A, 300, "192.0.2.1")
        svc.add_record("b.example.com.", c.TYPE_A, 300, "192.0.2.2")
        svc.delete_name("a.example.com.")
        assert svc.verify_all_zones() > 0
        assert svc.states_consistent()

    def test_serial_advances_once_per_update(self):
        svc = make_service()
        initial = svc.replicas[0].zone.serial
        svc.add_record("x.example.com.", c.TYPE_A, 300, "192.0.2.1")
        assert svc.replicas[0].zone.serial == initial + 1

    def test_failed_prerequisite_rejected_consistently(self):
        svc = make_service()
        from repro.dns.message import RR, make_update
        from repro.dns.name import Name

        update = make_update(svc.zone_origin)
        update.answers.append(
            RR(Name.from_text("ghost.example.com."), c.TYPE_ANY, c.CLASS_ANY, 0, None)
        )
        from repro.dns.rdata import A

        update.authority.append(
            RR(Name.from_text("new.example.com."), c.TYPE_A, c.CLASS_IN, 1, A("1.1.1.1"))
        )
        op = svc._await_op(lambda cb: svc.client.send_update(update, cb))
        assert op.response.rcode == c.RCODE_NXDOMAIN
        assert svc.states_consistent()


class TestCorruption:
    @pytest.mark.parametrize("proto", ["basic", "optproof", "optte"])
    def test_updates_succeed_with_one_corrupted(self, proto):
        svc = make_service(proto=proto)
        svc.corrupt(1, CorruptionMode.BAD_SHARES)
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR
        assert svc.verify_all_zones() > 0

    def test_two_corruptions_n7(self):
        svc = make_service(n=7, t=2, k=2)
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR
        honest_digests = svc.zone_digests()
        assert len(set(honest_digests)) == 1

    def test_crashed_gateway_client_retries(self):
        svc = make_service(config_extra={"client_timeout": 5.0})
        svc.corrupt(0, CorruptionMode.CRASH)  # replica 0 is the gateway
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.retries >= 1
        assert op.response.rcode == c.RCODE_NOERROR

    def test_mute_gateway_client_retries(self):
        svc = make_service(config_extra={"client_timeout": 5.0})
        svc.corrupt(0, CorruptionMode.MUTE_TO_CLIENTS)
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.retries >= 1
        assert op.response.rcode == c.RCODE_NOERROR


class TestClientModels:
    def test_full_client_majority_vote(self):
        svc = make_service(client_model="full")
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR

    def test_full_client_outvotes_stale_replica(self):
        svc = make_service(client_model="full")
        svc.add_record("fresh.example.com.", c.TYPE_A, 300, "192.0.2.50")
        svc.corrupt(1, CorruptionMode.STALE_READS)
        op = svc.query("fresh.example.com.", c.TYPE_A)
        # Majority of honest replicas returns the fresh record (G1).
        assert op.response.answers

    @pytest.mark.parametrize("model", ["pragmatic", "full"])
    def test_client_decodes_one_response_per_operation(self, model, monkeypatch):
        """Every replica answers every request.  The pragmatic client
        decodes only its gateway's response, the full client votes on raw
        bytes and decodes the winner — late and foreign responses are
        dropped on the 2-byte message id."""
        from repro.dns.message import Message

        svc = make_service(client_model=model)
        decoded = []
        real = Message.from_wire.__func__

        def counting(cls, wire):
            message = real(cls, wire)
            if message.is_response:
                decoded.append(message.msg_id)
            return message

        monkeypatch.setattr(Message, "from_wire", classmethod(counting))
        op = svc.query("www.example.com.", c.TYPE_A)
        svc.settle()
        assert op.response.rcode == c.RCODE_NOERROR and op.verified
        assert decoded == [op.msg_id]

    def test_malformed_responses_cannot_wedge_a_client(self):
        from repro.broadcast.messages import ClientResponse

        svc = make_service()
        box = []
        svc.client.query(Name.from_text("www.example.com."), c.TYPE_A, box.append)
        (msg_id,) = svc.client._inflight
        junk = msg_id.to_bytes(2, "big") + b"\xff" * 5
        for wire in (b"", b"\x00", junk):
            svc.client._on_message(0, ClientResponse("x", wire, 0))
        assert not box and msg_id in svc.client._inflight
        svc.net.sim.run(condition=lambda: bool(box))
        assert box[0].response.rcode == c.RCODE_NOERROR

    def test_update_with_full_client(self):
        svc = make_service(client_model="full")
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR
        assert svc.states_consistent()


class TestTsig:
    def test_tsig_signed_update_accepted(self):
        svc = make_service(config_extra={"require_tsig": True})
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR

    def test_unsigned_update_refused(self):
        svc = make_service(config_extra={"require_tsig": True})
        # Bypass the client's TSIG key to send an unsigned update.
        svc.client.tsig_key = None
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_REFUSED
        from repro.dns.name import Name

        assert svc.replicas[0].zone.find_rrset(
            Name.from_text("new.example.com."), c.TYPE_A
        ) is None


class TestBaseCase:
    def test_unreplicated_base_case(self):
        svc = make_service(n=1, t=0, topology=paper_setup(1))
        read = svc.query("www.example.com.", c.TYPE_A)
        assert read.response.rcode == c.RCODE_NOERROR
        add = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert add.response.rcode == c.RCODE_NOERROR
        assert svc.verify_all_zones() > 0


class TestUnsignedZone:
    def test_updates_skip_signing(self):
        svc = make_service(config_extra={"signed_zone": False})
        op = svc.add_record("new.example.com.", c.TYPE_A, 300, "192.0.2.9")
        assert op.response.rcode == c.RCODE_NOERROR
        assert svc.replicas[0].stats["signatures_completed"] == 0
        assert svc.states_consistent()


class TestNsupdateSemantics:
    def test_add_preceded_by_read(self):
        svc = make_service()
        read_op, add_op, total = svc.nsupdate_add(
            "new.example.com.", c.TYPE_A, 300, "192.0.2.9"
        )
        assert read_op.kind == "read" and add_op.kind == "add"
        assert total == pytest.approx(read_op.latency + add_op.latency)

    def test_add_roughly_twice_delete(self):
        svc = make_service()
        _, _, add_total = svc.nsupdate_add("x.example.com.", c.TYPE_A, 300, "192.0.2.9")
        _, _, delete_total = svc.nsupdate_delete("x.example.com.")
        assert 1.5 < add_total / delete_total < 2.6
