"""Ablation: the 15-second TTL on the Meta-CDN selection CNAME.

DESIGN.md calls out the selection TTL as the knob enabling quick
reroutes.  This bench sweeps the TTL and measures how long a cached
client population takes to follow an offload decision made at t=0:
clients honour their cached CNAME until it expires, so the reroute
delay is governed by the TTL — near-instant at the measured 15 s,
minutes at coarser TTLs.
"""

from conftest import write_output

from repro.apple.policy import MetaCdnController, OffloadCnamePolicy
from repro.dns.policies import stable_fraction
from repro.dns.query import QueryContext
from repro.net.geo import Continent, Coordinates, MappingRegion
from repro.net.ipv4 import IPv4Address

_CLIENTS = 400


def _make_policy(ttl):
    controller = MetaCdnController(
        {MappingRegion.EU: 100.0},
        target_utilization=1.0,
        min_third_party_share=0.0,
    )
    policy = OffloadCnamePolicy(controller=controller, ttl=ttl)
    controller.observe_demand(MappingRegion.EU, 400.0)  # keep only 25 %
    return policy


def _share_on_apple(policy, ttl, now):
    """Population share still on Apple's CDN at ``now``.

    Before t=0 every client resolved to Apple (no load).  Each client's
    cached answer expires at a staggered offset within one TTL; only
    after expiry does it see the post-flip selection.
    """
    on_apple = 0
    for host in range(_CLIENTS):
        expiry = stable_fraction("stagger", host) * ttl
        if now < expiry:
            on_apple += 1  # stale cached answer still points at Apple
            continue
        context = QueryContext(
            client=IPv4Address.parse(f"10.{host // 256}.{host % 256}.7"),
            coordinates=Coordinates(50.0, 8.0),
            continent=Continent.EUROPE,
            country="de",
            now=now,
        )
        (record,) = policy.bind("appldnld.g.applimg.com", now)(context)
        if record.target.endswith("gslb.applimg.com"):
            on_apple += 1
    return on_apple / _CLIENTS


def _reroute_delay(ttl):
    """Seconds until at least half the population followed the reroute."""
    policy = _make_policy(ttl)
    for elapsed in range(0, 3600, 5):
        if _share_on_apple(policy, ttl, float(elapsed)) <= 0.5:
            return float(elapsed)
    return 3600.0


def test_bench_ablation_selection_ttl(benchmark):
    delays = {ttl: _reroute_delay(ttl) for ttl in (15, 60, 300, 900)}
    benchmark(_reroute_delay, 15)

    lines = ["Ablation — selection-CNAME TTL vs offload reaction", ""]
    for ttl, delay in delays.items():
        lines.append(f"    TTL {ttl:>4}s -> >=50% rerouted after {delay:6.0f}s")
    text = "\n".join(lines)
    write_output("ablation_ttl.txt", text)
    print("\n" + text)

    # The measured 15 s TTL reacts fastest; reaction degrades with TTL.
    assert delays[15] <= delays[60] <= delays[300] <= delays[900]
    assert delays[15] <= 30.0
    assert delays[900] >= 180.0
