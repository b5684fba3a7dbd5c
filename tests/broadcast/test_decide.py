"""The epoch-change decision (``abc.decide``, DESIGN.md §5o), one branch
per test, and the NEW_EPOCH checks built on it."""

from repro.broadcast.abc import (
    INSTALL_SEQ,
    AuthPlane,
    NULL_RID,
    _final_signing_input,
    decide,
    derive_request_id,
    final_claims,
    request_digest,
)
from repro.broadcast.messages import AbcCommit, AbcEpochFinal, AbcNewEpoch, AbcOrder, AbcPrepare

from tests.broadcast.test_abc import build_solo, keys_4_1, prepare_from  # noqa: F401

R, R2 = b"request r", b"request r-prime"
RID, RID2 = derive_request_id(R), derive_request_id(R2)


def final(sender, locks=(), accepted=(), epoch=0, pending=()):
    return AbcEpochFinal(
        epoch=epoch, sender=sender, locks=tuple(locks), accepted=tuple(accepted),
        pending=tuple(pending),
    )


def claims(sender, locks=(), accepted=()):
    return final_claims(final(sender, locks, accepted))


def lock(seq, epoch, payload):
    return (seq, epoch, derive_request_id(payload), payload)


def null_lock(seq, epoch):
    return (seq, epoch, NULL_RID, b"")


class TestBranches:
    def test_a1_and_a2_choose_the_locked_value(self):
        pool = [claims(i, [lock(0, 0, R)]) for i in range(3)]
        assert decide(pool, 4, 1) == (1, {0: (RID, R)})

    def test_accepted_claims_supply_a2(self):
        # One locker; the other supporter only accepted r.
        pool = [
            claims(0, [lock(0, 0, R)]),
            claims(1, accepted=[(0, 0, RID)]),
            claims(2),
        ]
        assert decide(pool, 4, 1) == (1, {0: (RID, R)})

    def test_a2_below_t_plus_1_falls_back_to_b(self):
        # A lock nobody else accepted: B holds, the slot is null and,
        # being chosen by no candidate, ends outside the range.
        pool = [claims(0, [lock(0, 5, R2)]), claims(1), claims(2), claims(3)]
        assert decide(pool, 4, 1) == (0, {})

    def test_a1_fails_on_a_higher_lock(self):
        # (0, r) is outvoted by two higher locks; (2, r') wins.
        pool = [
            claims(0, [lock(0, 0, R)]),
            claims(1, [lock(0, 2, R2)]),
            claims(2, [lock(0, 2, R2)]),
        ]
        assert decide(pool, 4, 1) == (1, {0: (RID2, R2)})

    def test_a1_fails_on_another_rid_at_the_same_epoch(self):
        pool = [
            claims(0, [lock(0, 0, R)]),
            claims(1, [lock(0, 0, R2)]),
            claims(2, accepted=[(0, 0, RID)]),
        ]
        assert decide(pool, 4, 1) is None

    def test_b_makes_gaps_below_the_range_null(self):
        # Slot 1 is chosen; slot 0 has one unsupported lock and is null.
        pool = [
            claims(0, [lock(0, 0, R2), lock(1, 0, R)]),
            claims(1, [lock(1, 0, R)]),
            claims(2),
            claims(3),
        ]
        start, chosen = decide(pool, 4, 1)
        assert start == 2 and chosen == {1: (RID, R)}

    def test_undecided_when_neither_a_nor_b(self):
        pool = [
            claims(0, [lock(0, 0, R)]),
            claims(1, [lock(0, 1, R2)]),
            claims(2, [lock(0, 2, b"third")]),
        ]
        assert decide(pool, 4, 1) is None

    def test_null_lock_is_a_candidate(self):
        # A committed skip (null locked by 2t+1) stays a skip, and it
        # extends the range.
        pool = [claims(i, [null_lock(0, 1)]) for i in range(3)]
        assert decide(pool, 4, 1) == (1, {0: (NULL_RID, b"")})


class TestTieBreaks:
    def pool(self, first, second):
        # Both candidates pass A1 (no lock conflicts with the other's
        # epoch/rid) and A2 (each has two supporters).
        return [
            claims(0, [first]),
            claims(1, [second]),
            claims(2, accepted=[(0, 9, first[2]), (0, 9, second[2])]),
            claims(3),
        ]

    def test_a_value_beats_null(self):
        chosen = decide(self.pool(null_lock(0, 3), lock(0, 1, R)), 4, 1)[1]
        assert chosen[0] == (RID, R)

    def test_higher_epoch_wins(self):
        chosen = decide(self.pool(lock(0, 1, R), lock(0, 2, R2)), 4, 1)[1]
        assert chosen[0] == (RID2, R2)

    def test_smaller_rid_wins_at_equal_epochs(self):
        # Equal epochs with different rids fail A1 for both at (4, 1);
        # at (7, 2) the two lone lockers leave n-t others free.
        pool = [claims(0, [lock(0, 1, R)]), claims(1, [lock(0, 1, R2)])]
        pool += [claims(i, accepted=[(0, 1, RID), (0, 1, RID2)]) for i in range(2, 7)]
        chosen = decide(pool, 7, 2)[1]
        assert chosen[0] == (min(RID, RID2), R if RID < RID2 else R2)


class TestFourReplicaCounterexample:
    """The leader (0) ORDERs r to 1 and 2 and r' to 3, PREPAREs and
    COMMITs r, so r delivers at 1 and 2; its final claims a lock on r'."""

    liar = claims(0, [lock(0, 0, R2)])
    locker_1 = claims(1, [lock(0, 0, R)])
    locker_2 = claims(2, [lock(0, 0, R)])
    r_prime_replica = claims(3, accepted=[(0, 0, RID2)])

    def test_liar_locker_and_r_prime_replica_are_undecided(self):
        assert decide([self.liar, self.locker_1, self.r_prime_replica], 4, 1) is None

    def test_the_second_locker_decides_r(self):
        pool = [self.liar, self.locker_1, self.r_prime_replica, self.locker_2]
        assert decide(pool, 4, 1) == (1, {0: (RID, R)})


class TestMalformedFinals:
    def test_repeated_slot_is_malformed(self):
        assert final_claims(final(0, [lock(0, 0, R), lock(0, 1, R)])) is None

    def test_payload_must_hash_to_its_rid(self):
        assert final_claims(final(0, [(0, 0, RID, R2)])) is None
        assert final_claims(final(0, [(0, 0, NULL_RID, b"x")])) is None

    def test_negative_or_non_int_numbers_are_malformed(self):
        assert final_claims(final(0, [(-1, 0, RID, R)])) is None
        assert final_claims(final(0, accepted=[(0, True, RID)])) is None
        assert final_claims(final(0, accepted=[(0, 0)])) is None

    def test_signing_input_covers_every_claim(self):
        base = final(0, [lock(0, 0, R)], [(1, 0, RID2)], pending=[(RID, R)])
        variants = [
            final(0, [lock(0, 1, R)], [(1, 0, RID2)], pending=[(RID, R)]),
            final(0, [lock(0, 0, R)], [(1, 1, RID2)], pending=[(RID, R)]),
            final(0, [lock(0, 0, R)], [(1, 0, RID2)]),
        ]
        assert len({_final_signing_input(f) for f in [base, *variants]}) == 4


class TestNewEpochChecks:
    def deliver_r_at_slot_0(self, keys):
        abc, solo = build_solo(keys)
        digest = request_digest(0, 0, R)
        solo.on_message(0, AbcOrder(0, 0, RID, R))
        for peer in (0, 2):
            solo.on_message(peer, prepare_from(peer, 0, 0, digest))
            solo.on_message(peer, AbcCommit(0, 0, digest, peer, b""))
        assert solo.delivered == [R]
        return abc, solo

    def signed(self, keys, f):
        pairs, pubs, _ = keys
        return (f, AuthPlane(pairs[f.sender].private, pubs).sign(_final_signing_input(f)))

    def test_undecided_new_epoch_is_refused_and_counted(self, keys_4_1):
        abc, solo = build_solo(keys_4_1)
        finals = (
            final(0, [lock(0, 0, R2)]),
            final(2, [lock(0, 0, R)]),
            final(3, accepted=[(0, 0, RID2)]),
        )
        msg = AbcNewEpoch(1, tuple(self.signed(keys_4_1, f) for f in finals))
        solo.on_message(1 % 4, msg)
        assert abc.epoch == 0 and abc.stats["undecided_new_epochs"] == 1

    def test_decision_against_the_delivered_log_trips_g1(self, keys_4_1, monkeypatch):
        abc, solo = self.deliver_r_at_slot_0(keys_4_1)
        monkeypatch.setattr(abc, "_decide", lambda claims: (1, {0: (RID2, R2)}))
        finals = tuple(self.signed(keys_4_1, final(i)) for i in (0, 2, 3))
        solo.on_message(1, AbcNewEpoch(1, finals))
        assert abc.epoch == 0 and abc.stats["conflicting_new_epochs"] == 1

    def test_choices_deliver_only_after_the_install_slot_commits(self, keys_4_1):
        # Replica 1 leads epoch 1; replica 3 missed slot 0.
        finals = tuple(
            self.signed(keys_4_1, final(i, [lock(0, 0, R)])) for i in (0, 1, 2)
        )
        abc2, solo2 = build_solo(keys_4_1, me=3)
        solo2.on_message(2, AbcNewEpoch(1, finals))  # not the epoch-1 leader
        assert abc2.epoch == 0
        solo2.on_message(1, AbcNewEpoch(1, finals))
        assert abc2.epoch == 1 and solo2.delivered == []
        votes = [m for _d, m in solo2.sent if isinstance(m, AbcPrepare)]
        assert votes and all(v.seq == INSTALL_SEQ for v in votes)
        digest = votes[0].digest
        for peer in (0, 1):
            solo2.on_message(peer, AbcPrepare(1, INSTALL_SEQ, digest, peer))
        assert abc2._locks[0] == (1, RID, R) and solo2.delivered == []
        for peer in (0, 1):
            solo2.on_message(peer, AbcCommit(1, INSTALL_SEQ, digest, peer, b""))
        assert solo2.delivered == [R] and abc2.mode == "fast"
        assert abc2.next_deliver == 1 and abc2._accepted == {}
