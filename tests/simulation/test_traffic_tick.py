"""The ISP traffic phase against a per-flow reference, and pinned counts.

The engine accumulates one tick — each source sample's flows laid out
once in a route template, clipped against ``link_used`` — and writes it
once: one SNMP add per link, one flow-log block.  The per-link load is the result (Figures
6-8), so the rewrite is held to *bit-identical*, two ways:

* ``reference_tick`` is the loop the engine ran before: flow by flow
  through the public ``rib.lookup`` / ``isp.link`` /
  ``capacity_bytes`` / ``customer_prefix.host`` / ``snmp.add_bytes``
  calls, each flow a one-row ``observe_block``.  Hypothesis drives both
  over hand-built static worlds — links small enough to saturate, and
  to fill partway through one sample's flows, shares under a byte,
  sources that repeat within a tick, sources with no route, routes
  under a covering prefix, one sample routed over several ticks (the
  engine's route templates reused) and samples that change under it,
  Netflow sampling 1 and 3 — and every product must be equal:
  the five flow columns and the link table, the SNMP bins with their
  key order, ``link_used``, the offered total and the counters of a
  real registry.
* ``PINNED`` holds the counts of a 48-step window straddling the
  release, recorded at the tree *before* the tick accumulation existed
  (PR 21's) and not touched since.
"""

from array import array
from hashlib import blake2b
from itertools import chain, repeat
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.isp import BgpRib, BgpRoute, EyeballIsp, NetflowCollector, PeeringLink
from repro.isp.snmp import SnmpCounters
from repro.net.asys import ASN
from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.simulation import ScenarioConfig, Sep2017Scenario, SimulationEngine
from repro.simulation import engine as engine_module
from repro.workload import TIMELINE

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_GBPS_TO_BYTES = 1e9 / 8.0
STEP = 300.0
LINKS = ("l0", "l1", "l2", "l3")
OPERATORS = ("Apple", "Akamai", "Limelight")
# Fewer than the servers a deployment can hold, so the stride sample runs.
FANOUT = 3
OWN_ASN = {name: ASN(65001 + i) for i, name in enumerate(OPERATORS)}
HOSTER = ASN(65100)
# Eight /24s; a source is host 1..3 of one, so sources share routes,
# and 10.0.7.0/24 is never announced (no route: nothing is carried).
NETS = tuple(IPv4Prefix.parse(f"10.0.{i}.0/24") for i in range(8))
# What a table may announce: the first seven /24s, and a /22 over the
# first four that answers for whichever of them has no /24.
ANNOUNCED = NETS[:7] + (IPv4Prefix.parse("10.0.0.0/22"),)


# ----------------------------------------------------------------------
# a hand-built world: real RIB / ISP / SNMP / collector, stub estate
# ----------------------------------------------------------------------


class StubDeployment:
    """An exposure-ordered server list, of which a prefix is active."""

    def __init__(self, operator, servers):
        self.asn = OWN_ASN[operator]
        self.servers = servers
        self.active = len(servers)

    def active_servers(self, region):
        assert region is MappingRegion.EU
        return tuple(self.servers[: self.active])


def placed(address, asn):
    return SimpleNamespace(server=SimpleNamespace(address=address, asn=asn))


class World:
    """Everything the traffic phase reads, under its own registry."""

    def __init__(self, spec, sampling):
        self.registry = MetricsRegistry()
        with use_registry(self.registry):
            self.isp = EyeballIsp(
                ASN(64500), "isp", IPv4Prefix.parse("100.64.0.0/16"),
                [PeeringLink(link_id, "r1", ASN(65200), gbps)
                 for link_id, gbps in zip(LINKS, spec["capacities"])],
            )
            self.rib = BgpRib(spec["routes"])
            self.snmp = SnmpCounters(bin_seconds=STEP)
            # 1 MiB flows keep the sampled path's per-row loop short.
            self.netflow = NetflowCollector(sampling_rate=sampling, flow_bytes=1 << 20)
        self.config = SimpleNamespace(isp_share_of_eu=0.5)
        self.estate = SimpleNamespace(deployments={
            operator: StubDeployment(
                operator,
                [placed(address, OWN_ASN[operator] if own else HOSTER)
                 for address, own in servers],
            )
            for operator, servers in spec["servers"].items()
        })
        self.background_gbps = dict(spec["backgrounds"])
        self.backgrounds = {
            operator: SimpleNamespace(rate_gbps=lambda now, o=operator: self.background_gbps[o])
            for operator in self.background_gbps
        }
        self.fill = ([], 0.0)

    def precache_fill(self, now):
        return self.fill

    def products(self):
        log = self.netflow.records
        counters = {
            name: self.registry.get(name).value
            for name in ("netflow_records_total", "netflow_offered_bytes_total")
        }
        counters["snmp_bytes_total"] = [
            (labels, child.value)
            for labels, child in self.registry.get("snmp_bytes_total").children()
        ]
        return {
            "columns": (log.block_times, log.block_ends, log.srcs, log.dsts,
                        log.sizes, log.link_ids),
            "links": log.links,
            "bins": [(link, list(bins.items()))
                     for link, bins in self.snmp.snapshot_bins().items()],
            "offered": self.netflow.total_offered_bytes,
            "counters": counters,
        }


# ----------------------------------------------------------------------
# the reference: the per-flow loop, through public calls only
# ----------------------------------------------------------------------


def reference_tick(world, now, eu_split):
    link_used = {}
    flows = 0
    for operator in sorted(set(eu_split) | set(world.backgrounds)):
        update_gbps = eu_split.get(operator, 0.0) * world.config.isp_share_of_eu
        if update_gbps > 0:
            flows += reference_deliver(world, operator, now, update_gbps, link_used, False)
        background = world.backgrounds.get(operator)
        if background is not None and background.rate_gbps(now) > 0:
            flows += reference_deliver(
                world, operator, now, background.rate_gbps(now), link_used, True
            )
    fill_sources, fill_gbps = world.precache_fill(now)
    if fill_sources and fill_gbps > 0:
        per_source = fill_gbps * _GBPS_TO_BYTES * STEP / len(fill_sources)
        for source in fill_sources:
            flows += reference_route(world, source, now, per_source, link_used)
    return flows, link_used


def reference_deliver(world, operator, now, gbps, link_used, own_as_only):
    deployment = world.estate.deployments.get(operator)
    if deployment is None:
        return 0
    active = deployment.active_servers(MappingRegion.EU)
    if own_as_only:
        active = tuple(p for p in active if p.server.asn == deployment.asn)
    if not active:
        return 0
    if len(active) <= FANOUT:
        sources = [p.server.address for p in active]
    else:
        stride = len(active) / FANOUT
        sources = [active[int(i * stride)].server.address for i in range(FANOUT)]
    per_source = gbps * _GBPS_TO_BYTES * STEP / len(sources)
    return sum(
        reference_route(world, source, now, per_source, link_used) for source in sources
    )


def reference_route(world, source, now, total_bytes, link_used):
    route = world.rib.lookup(source)
    if route is None:
        return 0
    links = [world.isp.link(link_id) for link_id in route.link_ids]
    per_link = total_bytes / len(links)
    flows = 0
    destination = None
    for link in links:
        link_id = link.link_id
        capacity = link.capacity_bytes(STEP)
        used = link_used.get(link_id, 0.0)
        carried = min(per_link, max(0.0, capacity - used))
        if carried <= 0:
            continue
        link_used[link_id] = used + carried
        carried_bytes = int(carried)
        if carried_bytes <= 0:
            continue
        world.snmp.add_bytes(link_id, now, carried_bytes)
        if destination is None:
            destination = world.isp.customer_prefix.host(
                1 + (source.value + int(now)) % 1024
            )
        flows += world.netflow.observe_block(
            now, [source.value], [destination.value], [carried_bytes], [link_id]
        )
    return flows


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------

sources = st.builds(
    lambda net, host: NETS[net].host(host), st.integers(0, 7), st.integers(1, 3)
)
link_sets = st.lists(st.sampled_from(LINKS), min_size=1, max_size=3, unique=True)
routes = st.builds(
    lambda prefix, hops, links: BgpRoute(
        prefix, tuple(ASN(65300 + hop) for hop in range(hops)), tuple(links)
    ),
    st.sampled_from(ANNOUNCED), st.integers(1, 3), link_sets,
)
# 1e-5 Gbps is 375 000 bytes a step: against offers of up to 0.002 Gbps
# most links saturate, and a full link leaves fractions of a byte over.
# 4e-5 Gbps holds one 1e-4 Gbps source of three and not two, so a link
# fills partway through a call.  2e-10 Gbps is 7.5 bytes a step, under
# a byte a flow once spread over three sources of a three-link route.
# Up to six hosts of one /24: one route, so each of its links takes a
# run of equal shares in one call, added onto what earlier calls left.
crowds = st.builds(
    lambda net, size: [NETS[net].host(1 + i % 3) for i in range(size)],
    st.integers(0, 7), st.integers(3, 6),
)
capacities = st.sampled_from([1e-8, 1e-5, 1.7e-5, 4e-5, 1e-4, 1e-3, 10.0])
gbps = st.sampled_from([0.0, 2e-10, 1e-9, 3e-6, 1e-5, 1e-4, 3e-4, 7e-4, 2e-3])
specs = st.fixed_dictionaries({
    "capacities": st.lists(capacities, min_size=4, max_size=4),
    "routes": st.lists(routes, min_size=4, max_size=8, unique_by=lambda r: r.prefix),
    "servers": st.dictionaries(
        st.sampled_from(OPERATORS),
        st.lists(st.tuples(sources, st.booleans()), min_size=1, max_size=6),
        min_size=2,
    ),
    "backgrounds": st.dictionaries(st.sampled_from(OPERATORS), gbps, min_size=1),
})
ticks = st.lists(
    st.fixed_dictionaries({
        "advance": st.sampled_from([0, 1, 300, 301, 3600]),
        "split": st.dictionaries(
            st.sampled_from(OPERATORS + ("Level3",)), gbps, min_size=2
        ),
        "active": st.dictionaries(
            st.sampled_from(OPERATORS), st.integers(0, 6), max_size=1
        ),
        "backgrounds": st.dictionaries(st.sampled_from(OPERATORS), gbps),
        # None: the last tick's fill sources again, at a new rate.
        "fill": st.tuples(st.one_of(st.none(), st.lists(sources, max_size=4), crowds), gbps),
    }),
    min_size=2, max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(spec=specs, ticks=ticks, sampling=st.sampled_from([1, 1, 3]))
def test_a_tick_equals_the_per_flow_loop(spec, ticks, sampling):
    with mock.patch.object(engine_module, "ISP_SERVER_FANOUT", FANOUT):
        check_tick_against_reference(spec, ticks, sampling)


def check_tick_against_reference(spec, ticks, sampling):
    real, model = World(spec, sampling), World(spec, sampling)
    # The engine only reads its scenario; the world stands in for one.
    engine = SimulationEngine(real, step_seconds=STEP)
    now = 1_000_000.0
    for tick in ticks:
        now += tick["advance"]  # 0: a second tick on the same timestamp
        for world in (real, model):
            for operator, count in tick["active"].items():
                if operator in world.estate.deployments:
                    world.estate.deployments[operator].active = count
            for operator, rate in tick["backgrounds"].items():
                if operator in world.background_gbps:
                    world.background_gbps[operator] = rate
            fill_sources, fill_gbps = tick["fill"]
            if fill_sources is None:
                fill_sources = world.fill[0]
            world.fill = (fill_sources, fill_gbps)
        flows, link_used = engine._generate_isp_traffic_impl(now, tick["split"])
        expected_flows, expected_used = reference_tick(model, now, tick["split"])
        assert flows == expected_flows
        assert list(link_used.items()) == list(expected_used.items())
        assert real.products() == model.products()


# ----------------------------------------------------------------------
# recorded counts
# ----------------------------------------------------------------------

# 48 half-hour steps from Sep 19 05:00: the release is step 24.
WINDOW = (TIMELINE.ios_11_0_release - 24 * 1800.0, TIMELINE.ios_11_0_release + 24 * 1800.0)

_LINK_TOTALS = {
    "akamai-1": 1225737792205321, "akamai-2": 1225737792205321,
    "akamai-3": 1225737792205321, "akamai-cache": 1225737792205321,
    "transit-a-1": 286343564033745, "transit-a-2": 286343564033745,
    "apple-1": 1196135142731664, "apple-2": 1196135142731664,
    "limelight-1": 638992880070554, "limelight-2": 638992880070554,
    "transit-b-1": 31700872571983, "transit-b-2": 31700872571983,
    "transit-c-1": 9924555689989, "transit-c-2": 9924555689989,
    "transit-d-1": 79691039217112, "transit-d-2": 79691039217112,
}
PINNED = {
    "flow_rows": 28676,
    "flows_reported": 28676,
    "offered_bytes": 9388527277451378,
    "snmp_totals": _LINK_TOTALS,  # compared as lists below: first-carried order
    "links": list(_LINK_TOTALS),
    "columns_blake2b": "39aed2f51952b504",
    "netflow_records_total": 28676.0,
    "snmp_bytes_total": {link: float(total) for link, total in _LINK_TOTALS.items()},
}
# The one number that is not the parent's: this counter is a float and
# the window offers more than 2**53 bytes, so the parent's 28 676
# per-flow additions had drifted to ...540.0; one addition per tick
# lands on the exact total.
OFFERED_COUNTER_AT_THE_PARENT = 9388527277451540.0


def window_counts():
    registry = MetricsRegistry()
    with use_registry(registry):
        scenario = Sep2017Scenario(
            ScenarioConfig(global_probe_count=2, isp_probe_count=2)
        )
        engine = SimulationEngine(scenario, step_seconds=1800.0)
    reports = []
    assert engine.run(*WINDOW, progress=reports.append) == 48
    log = scenario.netflow.records
    digest = blake2b(digest_size=8)
    # The log keeps one timestamp per run; the digest hashes one per row.
    times = array("d", chain.from_iterable(
        repeat(timestamp, hi - lo) for timestamp, lo, hi in log.runs()
    ))
    for column in (times, log.srcs, log.dsts, log.sizes, log.link_ids):
        digest.update(column.tobytes())
    return {
        "flow_rows": len(log),
        "flows_reported": sum(report.flows for report in reports),
        "offered_bytes": scenario.netflow.total_offered_bytes,
        "snmp_totals": {
            link: sum(count for _, count in scenario.snmp.series(link))
            for link in scenario.snmp.links()
        },
        "links": log.links,
        "columns_blake2b": digest.hexdigest(),
        "netflow_records_total": registry.get("netflow_records_total").value,
        "netflow_offered_bytes_total": registry.get(
            "netflow_offered_bytes_total"
        ).value,
        "snmp_bytes_total": {
            labels[0]: child.value
            for labels, child in registry.get("snmp_bytes_total").children()
        },
    }


def test_counts_recorded_before_the_tick_accumulation():
    counts = window_counts()
    offered_counter = counts.pop("netflow_offered_bytes_total")
    assert counts == PINNED
    assert list(counts["snmp_totals"]) == list(PINNED["snmp_totals"])
    assert offered_counter == float(PINNED["offered_bytes"])
    assert offered_counter == pytest.approx(OFFERED_COUNTER_AT_THE_PARENT, rel=1e-13)
