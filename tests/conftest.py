"""Shared fixtures: small threshold keys and zones, cached per session.

Threshold key dealing is the slowest fixture; tests share session-scoped
keys (each test must not mutate them — key objects are immutable).
"""

from __future__ import annotations

import inspect
import os
import time

import pytest

from repro.config import ServiceConfig
from repro.crypto.executor import ALL_EXECUTORS
from repro.crypto.params import demo_threshold_key
from repro.dns.zonefile import parse_zone_text

_FORCED_PLANE = os.environ.get("REPRO_TEST_EXECUTOR")
if _FORCED_PLANE:
    # CI's crypto-plane matrix leg: rerun the whole suite with this
    # executor as the ServiceConfig default.  Tests that pin an executor
    # explicitly (the cross-executor determinism suite, the executor unit
    # tests) still get exactly what they ask for.
    if _FORCED_PLANE not in ALL_EXECUTORS:
        raise RuntimeError(
            f"REPRO_TEST_EXECUTOR={_FORCED_PLANE!r} is not one of {ALL_EXECUTORS}"
        )
    _params = list(inspect.signature(ServiceConfig.__init__).parameters)[1:]
    _defaults = list(ServiceConfig.__init__.__defaults__ or ())
    _tail = _params[-len(_defaults):]
    _defaults[_tail.index("crypto_executor")] = _FORCED_PLANE
    ServiceConfig.__init__.__defaults__ = tuple(_defaults)  # type: ignore[misc]

#: Tier-1 wall-time budget per test, in seconds; 0 disables.  CI sets it
#: to 10 (ROADMAP carry-over), local runs leave it off so a loaded box
#: does not turn a 9 s test into a flake.
_BUDGET_S = float(os.environ.get("REPRO_TEST_BUDGET_S") or 0)


@pytest.fixture(autouse=True)
def _wall_time_budget(request):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    if _BUDGET_S and elapsed > _BUDGET_S and not request.node.get_closest_marker("slow"):
        pytest.fail(
            f"{request.node.nodeid} took {elapsed:.1f} s, over the {_BUDGET_S:g} s "
            "tier-1 budget: make it faster or mark it @pytest.mark.slow",
            pytrace=False,
        )


ZONE_TEXT = """
$ORIGIN example.com.
$TTL 3600
@    IN SOA ns1.example.com. admin.example.com. ( 100 7200 900 604800 300 )
     IN NS ns1
     IN NS ns2
ns1  IN A 192.0.2.1
ns2  IN A 192.0.2.2
www  IN A 192.0.2.80
www  IN A 192.0.2.81
mail IN MX 10 mx1
mx1  IN A 192.0.2.25
txt  IN TXT "hello world"
alias IN CNAME www
sub  IN NS ns1.sub
ns1.sub IN A 192.0.2.53
v6   IN AAAA 2001:db8::1
"""


@pytest.fixture()
def zone():
    return parse_zone_text(ZONE_TEXT)


@pytest.fixture(scope="session")
def threshold_4_1():
    """(n=4, t=1) threshold key over a 384-bit demo modulus."""
    return demo_threshold_key(4, 1, 384)


@pytest.fixture(scope="session")
def threshold_7_2():
    """(n=7, t=2) threshold key over a 384-bit demo modulus."""
    return demo_threshold_key(7, 2, 384)


@pytest.fixture(scope="session")
def threshold_4_1_512():
    """(n=4, t=1) key over a 512-bit modulus (for DNSSEC-size tests)."""
    return demo_threshold_key(4, 1, 512)
