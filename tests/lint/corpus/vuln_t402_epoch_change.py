"""Seeded vulnerability: unverified message drives an epoch change (T402)."""

from dataclasses import dataclass


@dataclass
class NewEpoch:
    epoch: int
    certificate: bytes


class Endpoint:
    def __init__(self):
        self.epoch = 0

    def on_message(self, sender, msg):
        # BUG: a forged NEW_EPOCH moves our epoch without
        # _validate_new_epoch / signature verification.
        if msg.epoch > self.epoch:
            self.epoch = msg.epoch
