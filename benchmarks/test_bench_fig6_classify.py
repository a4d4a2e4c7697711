"""Figure 6: offload and overflow from the ISP's perspective.

Figure 6 is the definitional illustration; its reproduction is the
classification itself.  This bench regenerates the offload/overflow
breakdown over the full flow trace and benchmarks classification
throughput (the paper's pipeline chewed ~300 billion records; ours is
scaled, so throughput is the relevant metric).
"""

from conftest import write_output

from repro.isp import TrafficClassifier


def test_bench_fig6_classification(benchmark, bench_run):
    scenario = bench_run
    classifier = TrafficClassifier(scenario.isp, scenario.rib, scenario.operator_of)
    records = scenario.netflow.records

    def classify_all():
        return list(classifier.classify_all(records))

    classified = benchmark(classify_all)

    total = sum(c.flow.bytes for c in classified)
    offload = sum(c.flow.bytes for c in classified if c.is_offload)
    overflow = sum(c.flow.bytes for c in classified if c.is_overflow)
    both = sum(
        c.flow.bytes for c in classified if c.is_offload and c.is_overflow
    )
    lines = [
        "Figure 6 — offload / overflow classification",
        "",
        f"    flow records analysed: {len(classified)}",
        f"    total volume:    {total / 1e15:8.2f} PB",
        f"    offload share:   {offload / total * 100:6.1f}%",
        f"    overflow share:  {overflow / total * 100:6.1f}%",
        f"    both (offload+overflow): {both / total * 100:6.1f}%",
    ]
    text = "\n".join(lines)
    write_output("fig6_classify.txt", text)
    print("\n" + text)

    assert classified
    # Orthogonality: some traffic is both, neither is empty.
    assert 0 < offload < total
    assert 0 < overflow < total
    assert both > 0
    # Every overflow flow has source != handover by definition.
    for item in classified:
        if item.is_overflow:
            assert item.source_asn != item.handover_asn
