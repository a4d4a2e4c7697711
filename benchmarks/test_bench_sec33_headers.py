"""Section 3.3: edge-site structure inference from HTTP headers.

Downloads images through the modelled edge sites, collects the Via /
X-Cache headers, and re-derives the internal structure exactly as the
paper did: vip -> four edge-bx -> edge-lx -> CloudFront origin, running
Apache Traffic Server.
"""

from conftest import write_output

from repro.analysis import infer_hierarchy
from repro.http.messages import Headers, HttpRequest


def _download_samples(scenario, requests_per_vip=16):
    apple = scenario.estate.apple
    samples = []
    for site in apple.sites[:6]:
        for vip in site.vip_addresses[:3]:
            for index in range(requests_per_vip):
                request = HttpRequest(
                    "GET",
                    "appldnld.apple.com",
                    f"/ios11.0/iphone9_1_{index}.ipsw",
                    headers=Headers({"X-Client": f"198.51.{index}.9"}),
                )
                served = apple.serve(vip, request, size=2_800_000_000)
                samples.append((vip, served.response))
    return samples


def test_bench_sec33_header_inference(benchmark, bench_run):
    scenario = bench_run
    samples = _download_samples(scenario)
    inference = benchmark(infer_hierarchy, samples)
    text = inference.render()
    write_output("sec33_headers.txt", text)
    print("\n" + text)

    # The paper's conclusions, re-derived from headers alone:
    assert inference.layer_order == ("origin", "edge-lx", "edge-bx")
    assert inference.fanout_per_vip == 4
    assert inference.uses_traffic_server
    assert any("cloudfront" in host for host in inference.origin_hosts)
    assert inference.inconsistent_headers == 0
