"""Exact counts of a small campaign, pinned from before the record layer.

"Counts unmoved" is the gate every hot-path change to the chase runs
under: what a campaign tick asks, caches, counts and records is state,
not overhead.  This drives one fixed :class:`DnsCampaign` over a
hand-built Figure 2 estate — ten probes, each with its own resolver —
every 100 s for 22 000 s, so ticks fall either side of the 15 s, 120 s, 300 s and
21 600 s TTLs, across the ``a1015`` switch and across an offload
change, under a real :class:`MetricsRegistry`.

``PINNED`` was first recorded at the commit *before* ``Zone.answer`` and
the chase-filled views existed (PR 20's tree), with two more probes
behind a shared POP cache.  When that cache was deleted, the numbers
below were recorded from the same setup without those two probes, on
the tree that still had it; a change that moves any number here changed
behaviour, whatever the digests of the big replay say.
"""

from hashlib import blake2b

from repro.apple.policy import (
    AkamaiHandoverPolicy,
    MetaCdnController,
    OffloadCnamePolicy,
)
from repro.atlas.campaign import DnsCampaign
from repro.atlas.probe import AtlasProbe
from repro.dns.policies import (
    CnamePolicy,
    CountrySplitPolicy,
    GslbAddressPolicy,
    StaticPolicy,
    WeightSchedule,
    WeightedCnamePolicy,
)
from repro.dns.query import QueryContext
from repro.dns.resolver import RecursiveResolver
from repro.dns.zone import AuthoritativeServer, Zone
from repro.net.asys import ASN
from repro.net.geo import MappingRegion
from repro.net.ipv4 import IPv4Address
from repro.net.locode import LocodeDatabase
from repro.obs import MetricsRegistry, use_registry
from repro.workload.timeline import MeasurementWindow

DB = LocodeDatabase.builtin()
TARGET = "appldnld.apple.com"
INTERVAL = 100.0
END = 22_000.0
A1015_FROM = 9_950.0
OFFLOAD_FROM = 4_000.0

# (metro, address): four EU probes (the a1015 split needs a few), two
# US, two APAC, one in India (the country split's other branch) and one
# in China, whose branch is a name Akamai covers but never bound: an
# NXDOMAIN hop, counted as a query, answering nothing, never cached.
PLACEMENTS = [
    ("deber", "198.18.0.5"), ("defra", "198.18.1.9"), ("frpar", "198.18.2.77"),
    ("uklon", "198.18.3.130"), ("usnyc", "198.18.4.1"), ("ussjc", "198.18.5.200"),
    ("jptyo", "198.18.6.42"), ("sgsin", "198.18.7.8"), ("inbom", "198.18.8.3"),
    ("cnsha", "198.18.10.1"),
]

PINNED = {
    "dns_queries_total": {"Apple": 2780, "Akamai": 2523, "Limelight": 484},
    "dns_answer_records_total": {"Apple": 5780, "Akamai": 5775, "Limelight": 3872},
    "dns_cache_hits_total": 4049,
    "dns_cache_misses_total": 5787,
    "dns_cache_evictions_total": 5484,
    # (hits, misses, evictions) per resolver, in PLACEMENTS order.
    "per_probe_cache": [
        (386, 616, 606), (384, 617, 607), (396, 619, 609), (393, 621, 611),
        (388, 614, 605), (395, 613, 604), (390, 617, 608), (405, 622, 613),
        (584, 516, 511), (328, 332, 110),
    ],
    "dns_resolutions_total": 2200,
    "chain_length_buckets": [
        (1.0, 0), (2.0, 0), (3.0, 220), (4.0, 1220), (5.0, 1924), (6.0, 2200),
        (8.0, 2200), (12.0, 2200), (16.0, 2200), (float("inf"), 2200),
    ],
    "chain_length_sum": 9836.0,
    "atlas_measurements_total": 2200,
    "store_rows": 2200,
    "store_rows_digest": "4ef95fd5a949125f",
    "distinct_chains": 11,
    "distinct_addresses": 41,
}


def pool(prefix, size):
    addresses = tuple(IPv4Address.parse(f"{prefix}.{i}").value for i in range(1, size + 1))
    return lambda context: addresses


def build_estate(controller):
    apple = Zone("apple.com")
    apple.bind(TARGET, CnamePolicy("appldnld.apple.com.akadns.net", 21600))
    applimg = Zone("applimg.com")
    applimg.bind("appldnld.g.applimg.com", OffloadCnamePolicy(controller=controller))
    for gslb in ("a.gslb.applimg.com", "b.gslb.applimg.com"):
        applimg.bind(
            gslb, GslbAddressPolicy(pool("17.253.0", 9), ttl=15, salt=gslb)
        )
    akadns = Zone("akadns.net")
    akadns.bind(
        "appldnld.apple.com.akadns.net",
        CountrySplitPolicy(
            default="appldnld.g.applimg.com",
            overrides={
                "in": "india-lb.itunes-apple.com.akadns.net",
                "cn": "china-lb.itunes-apple.com.akadns.net",
            },
            ttl=120,
        ),
    )
    akadns.bind(
        "india-lb.itunes-apple.com.akadns.net",
        CnamePolicy("appldnld2.apple.com.edgesuite.net", 120),
    )
    for region in MappingRegion:
        akadns.bind(
            f"ios8-{region.value}-lb.apple.com.akadns.net",
            WeightedCnamePolicy(
                WeightSchedule(
                    [
                        (0.0, {"appldnld2.apple.com.edgesuite.net": 1.0,
                               "apple.vo.llnwi.net": 1.0}),
                        (12_000.0, {"appldnld2.apple.com.edgesuite.net": 1.0,
                                    "apple.vo.llnwi.net": 3.0}),
                    ]
                ),
                ttl=300,
                salt=region.value,
            ),
        )
    edgesuite = Zone("edgesuite.net")
    edgesuite.bind(
        "appldnld2.apple.com.edgesuite.net",
        AkamaiHandoverPolicy(secondary_from=A1015_FROM),
    )
    akamai_net = Zone("akamai.net")
    for handover in ("a1271.gi3.akamai.net", "a1015.gi3.akamai.net"):
        akamai_net.bind(
            handover,
            GslbAddressPolicy(pool("23.0.0", 20), ttl=20, answer_count=8, salt=handover),
        )
    llnwi = Zone("llnwi.net")
    llnwi.bind(
        "apple.vo.llnwi.net",
        GslbAddressPolicy(pool("68.142.0", 12), ttl=20, answer_count=8, salt="ll"),
    )
    return [
        AuthoritativeServer("Apple", [apple, applimg]),
        AuthoritativeServer("Akamai", [akadns, edgesuite, akamai_net]),
        AuthoritativeServer("Limelight", [llnwi]),
    ]


def make_probe(probe_id, metro, address, servers):
    return AtlasProbe.create(
        probe_id=probe_id,
        address=IPv4Address.parse(address),
        asn=ASN(64500 + probe_id),
        location=DB.get(metro),
        servers=servers,
    )


def run_campaign():
    """Drive the fixed campaign; returns everything ``PINNED`` pins."""
    registry = MetricsRegistry()
    with use_registry(registry):
        controller = MetaCdnController(
            {region: 10.0 for region in MappingRegion}, target_utilization=1.0
        )
        servers = build_estate(controller)
        probes = [
            make_probe(index + 1, metro, address, servers)
            for index, (metro, address) in enumerate(PLACEMENTS)
        ]
        campaign = DnsCampaign(
            probes=probes,
            target=TARGET,
            interval=INTERVAL,
            window=MeasurementWindow("w", 0.0, END),
            name="pinned",
        )
        now = 0.0
        while now < END:
            if now == OFFLOAD_FROM:
                # Demand twice the capacity: half of every region spills
                # to the third-party branch from here on.
                for region in MappingRegion:
                    controller.observe_demand(region, 20.0)
            campaign.maybe_run(now)
            now += INTERVAL

    def by_operator(name):
        return {
            labels[0]: int(child.value)
            for labels, child in registry.get(name).children()
        }

    rows = blake2b(digest_size=8)
    for m in campaign.store.dns:
        rows.update(
            repr(
                (m.probe_id, m.timestamp, m.rcode, m.chain,
                 tuple(a.value for a in m.addresses))
            ).encode()
        )
    chain = registry.get("dns_cname_chain_length").labels()
    per_probe = [probe.resolver.cache_stats() for probe in probes]
    return {
        "dns_queries_total": by_operator("dns_queries_total"),
        "dns_answer_records_total": by_operator("dns_answer_records_total"),
        "dns_cache_hits_total": int(registry.get("dns_cache_hits_total").value),
        "dns_cache_misses_total": int(registry.get("dns_cache_misses_total").value),
        "dns_cache_evictions_total": int(
            registry.get("dns_cache_evictions_total").value
        ),
        "per_probe_cache": [(s.hits, s.misses, s.evictions) for s in per_probe],
        "dns_resolutions_total": int(registry.get("dns_resolutions_total").value),
        "chain_length_buckets": [
            (upper, count) for upper, count in chain.cumulative_buckets()
        ],
        "chain_length_sum": chain.sum,
        "atlas_measurements_total": int(
            registry.get("atlas_measurements_total").labels("pinned").value
        ),
        "store_rows": campaign.store.dns_count,
        "store_rows_digest": rows.hexdigest(),
        "distinct_chains": len({m.chain for m in campaign.store.dns}),
        "distinct_addresses": len(campaign.store.unique_addresses()),
    }


def test_campaign_counts_are_what_they_were_before_the_record_layer():
    observed = run_campaign()
    assert set(observed) == set(PINNED)
    for key, value in PINNED.items():
        assert observed[key] == value, key
    # The run really crossed what it claims to cross.
    assert observed["dns_queries_total"].keys() == {"Apple", "Akamai", "Limelight"}
    assert observed["distinct_chains"] >= 8


def test_an_operator_that_answers_nothing_exports_no_answer_series():
    # As before the record layer: a counter series exists once it has
    # counted something.  "Void" is asked (an unbound name, then a bound
    # one answering no records) and so has a query series, but it never
    # answered a record and so has no ``dns_answer_records_total`` one.
    apple = Zone("apple.com")
    apple.bind("gone.apple.com", CnamePolicy("unbound.void.example", 60))
    apple.bind("bare.apple.com", CnamePolicy("empty.void.example", 60))
    void = Zone("void.example")
    void.bind("empty.void.example", StaticPolicy(()))
    servers = [AuthoritativeServer("Apple", [apple]), AuthoritativeServer("Void", [void])]
    registry = MetricsRegistry()
    with use_registry(registry):
        resolver = RecursiveResolver(servers)
    here = QueryContext(
        client=IPv4Address.parse("198.18.0.5"),
        coordinates=DB.get("deber").coordinates,
        continent=DB.get("deber").continent,
        country="de",
    )
    for name in ("gone.apple.com", "bare.apple.com"):
        assert resolver.resolve(name, here).addresses == ()

    def series(name):
        return {labels[0]: int(child.value) for labels, child in registry.get(name).children()}

    assert series("dns_queries_total") == {"Apple": 2, "Void": 2}
    assert series("dns_answer_records_total") == {"Apple": 2}
