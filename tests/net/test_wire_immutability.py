"""Every message that crosses a transport is recursively immutable.

``AsyncNetwork.transmit`` hands the sender's object to the receiver, as
``SimNetwork`` always did, so sharing is safe only while no wire class
can change after it is sent: a frozen dataclass whose fields are ints,
strings, bytes, bools, None, tuples of these, or frozen dataclasses of
the same kind.  The enumeration below is checked against the payloads
a live asyncio deployment actually transmits.
"""

import asyncio
import dataclasses
import inspect
import typing

import pytest

from repro.broadcast import messages
from repro.config import ServiceConfig
from repro.core.replica import _SignedClientResponse
from repro.crypto.protocols import SigningMessage
from repro.crypto.shoup import ShareProof, SignatureShare
from repro.dns import constants as c
from repro.net.local import AsyncNameService, AsyncNetwork

ATOMS = (int, str, bytes, bool, type(None))

#: Every class a transport carries: the broadcast, agreement, coin and
#: client messages of ``broadcast/messages.py``, the signing messages and
#: the signed client response.
WIRE_CLASSES = [
    cls
    for _name, cls in inspect.getmembers(messages, inspect.isclass)
    if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
] + [SigningMessage, SignatureShare, ShareProof, _SignedClientResponse]


def mutable_parts(tp, where, seen):
    """Names of the fields under ``tp`` that could change after a send."""
    if tp in ATOMS:
        return []
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is tuple:
        return [
            part
            for arg in typing.get_args(tp)
            if arg is not Ellipsis
            for part in mutable_parts(arg, where, seen)
        ]
    if inspect.isclass(tp) and dataclasses.is_dataclass(tp):
        if not tp.__dataclass_params__.frozen:
            return [f"{where} ({tp.__name__} is not frozen)"]
        if tp in seen:
            return []
        seen.add(tp)
        hints = typing.get_type_hints(tp)
        return [
            part
            for field in dataclasses.fields(tp)
            for part in mutable_parts(hints[field.name], f"{tp.__name__}.{field.name}", seen)
        ]
    return [f"{where}: {tp!r}"]


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_wire_class_is_recursively_immutable(cls):
    assert mutable_parts(cls, cls.__name__, set()) == []


def test_a_list_field_is_caught():
    @dataclasses.dataclass(frozen=True)
    class Leaky:
        epoch: int
        voters: typing.List[int]

    assert mutable_parts(Leaky, "Leaky", set()) == ["Leaky.voters: typing.List[int]"]


def test_enumeration_covers_what_a_deployment_transmits(monkeypatch):
    # A read and a signed update on a live (4, 1) deployment; the signed
    # EPOCH_FINAL travels as a (final, signature) tuple.
    seen = set()
    transmit = AsyncNetwork.transmit

    def recording(self, src, dest, payload):
        if isinstance(payload, tuple):
            seen.update(type(part) for part in payload)
        else:
            seen.add(type(payload))
        transmit(self, src, dest, payload)

    monkeypatch.setattr(AsyncNetwork, "transmit", recording)

    async def scenario():
        service = AsyncNameService(ServiceConfig(n=4, t=1))
        await service.query("www.example.com.", c.TYPE_A)
        await service.add_record("wire.example.com.", c.TYPE_A, 300, "192.0.2.7")

    asyncio.run(scenario())
    assert seen - {bytes} <= set(WIRE_CLASSES)
    assert messages.AbcPrepare in seen and messages.WrapperSigning in seen
