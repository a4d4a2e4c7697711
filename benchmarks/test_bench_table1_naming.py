"""Table 1: the Apple server naming scheme.

Regenerates the table (identifier -> meaning, with the canonical
example) and benchmarks the parser over the full reverse-DNS estate —
the workhorse behind site discovery.
"""

from conftest import write_output

from repro.apple.naming import parse_hostname
from repro.cdn.server import SecondaryFunction, ServerFunction

TABLE1 = """Table 1 — Apple server naming scheme

    Naming scheme:  ab-c-d-e.aaplimg.com
    Example:        usnyc3-vip-bx-008.aaplimg.com

    a   UN/LOCODE location (e.g. deber for Berlin)
    b   Location site id (e.g. 1)
    c   Function: vip, edge, gslb, dns, ntp and tool
    d   A secondary function identifier: bx, lx and sx
    e   Id for same function server (e.g. 004)"""


def test_bench_table1_parse_estate(benchmark, bench_run):
    scenario = bench_run
    hostnames = list(scenario.estate.apple.reverse_dns_table().values())

    def parse_all():
        return [parse_hostname(hostname) for hostname in hostnames]

    parsed = benchmark(parse_all)
    write_output("table1_naming.txt", TABLE1)
    print("\n" + TABLE1)

    assert len(parsed) == len(hostnames)
    example = parse_hostname("usnyc3-vip-bx-008.aaplimg.com")
    assert example.locode == "usnyc"
    assert example.site_id == 3
    assert example.function is ServerFunction.VIP
    assert example.secondary is SecondaryFunction.BX
    assert example.server_id == 8
    # The scheme round-trips for every estate hostname.
    assert all(name.hostname() == hostname
               for name, hostname in zip(parsed, hostnames))
    # The known deviation: Apple's uklon is UN/LOCODE's gblon.
    london = [name for name in parsed if name.locode == "uklon"]
    assert london and london[0].canonical_locode == "gblon"
