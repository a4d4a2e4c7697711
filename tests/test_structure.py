"""Structure checks: deletions and single owners that no behaviour test sees.

Each test is one check of a CI structure step, ported 1:1 from its
``grep`` so tier-1 runs it too.  A check reads the source tree as text,
line by line, the way ``grep -rn --include='*.py'`` does; a hit prints
as ``path:line: text``.

*One serving process* (once the CI step "One serving process"): every
command serves from the in-process single loop; the forked
``SO_REUSEPORT`` fleet is kept only for the perf ledger's fleet row, and
nothing under ``src/`` boots it.

*One decision per policy*: an answer policy decides in ``bind`` alone,
the chase asks bound answers only, and the per-hop query path of the
old chase stays gone.

*One timer per wait* (once the CI step "Python 3.9 asyncio, one
deadline per request head"): ``asyncio.timeout()`` needs 3.11 and the
package runs on 3.9, a ``wait_for`` around each ``readline()`` is a
task per header line, and the wire DNS client awaits each attempt and
each hedge budget without ``asyncio.wait_for``.  Every timeout under
``serve/`` is an ``Alarm`` (``serve/deadline.py`` alone calls
``call_at``); the kept guard the stream connections used is gone.

*One steering plane* (once the CI step "One steering plane", and one
line of "The replay written once"): clients are steered by the DNS
selection chain alone.  The anycast axis and the hybrid mix of the two
stay gone from every layer: no package, flag, command, config field or
fault kind; a resolver population is checked in one place.

*The replay written once* (once the CI step "The replay written once"):
which campaigns a run fires and shards is ``Sep2017Scenario``'s; only
``plan_shards`` tells the ISP set from the global one.  A world is
brought to a tick boundary by ``SimulationEngine.replay_state``, and the
one other ``advance_state`` / ``mark_fired`` pair is the shard chunk
loop.  A schedule becomes a fault plane in ``FailoverLoop.build``.  The
chase asks bound answers and builds no DNS message per hop; a policy is
bound in ``Zone.answer_at`` alone.

*The flow log is columns* (once the CI step "The flow log is columns"):
the one flow log is typed arrays in ``repro/isp/netflow.py``, and a
``FlowRecord`` is built only there, for a reader; the report classifies the hourly
roll-up, a shard worker drains what it ships, the traffic phase writes a
tick at a time, and a DNS tick is one block.  The ISP plane is built
once: nothing that tracked changes to the RIB or the link set comes
back under ``repro/isp`` or in the engine.

*One figure set per run* (once the CI step of that name):
``analysis.report.measure`` computes Figures 2-8 once, and the
scoreboard and the figure benches read its ``PaperFigures``.

*One container, one TTL cache* (once the CI step "One container, one
TTL cache (no second copy)"): atomic writes live in
``repro/container.py``; files are unpickled only by its two
pickle-payload owners, once each, after the container verified them;
TTL eviction lives in ``dns/ttlcache.py`` and oldest-out memo eviction
in ``dns.wire._remember``.

*The live edge written once* (once the CI step of that name): one HTTP
reason table and one head reader (``repro/http/wire.py``, no per-line
``readline()`` loop), one TCP listener (``serve/listener.py``, with no
stream-based TCP path beside its protocols), one module that sizes
socket reads and opens client connections, by protocol or by stream
(``serve/udp.py``), one ``LoadReport`` construction (the fold in
``serve/loadgen.py``) and one campaign grid whose ``next_due`` is public.

*One recovery path* (once the CI step of that name): the in-run
supervisor (respawn, heartbeats, digest vote, the worker fault kinds)
stays gone; a lost worker is ``ShardWorkerLost``, raised only where the
coordinator collects chunk results, and ``repro.cli.main`` is the one
place that turns it into exit code 3.

*The settable surface* (once the CI step of that name): the option,
env-var and config surface is pinned once, in
``test_no_option_or_config_field_was_added``; the public population and
the Level3 ablation stay gone; each exception in
``tests/test_settable_surface.py``'s ``ALLOWED`` is one line naming its
kind and giving its reason.

*Telemetry nothing reads stays gone*: the admin plane, ``repro top``,
``repro profile`` and the flight recorder.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def grep(pattern, *roots, fixed=False):
    """``grep -rn[F|E] pattern roots --include='*.py'``, as ``path:n: line``;
    a root is a directory or one file."""
    matches = (lambda line: pattern in line) if fixed else re.compile(pattern).search
    hits = []
    for root in roots:
        base = ROOT / root
        assert base.exists(), f"no such path: {root}"
        for path in [base] if base.is_file() else sorted(base.rglob("*.py")):
            lines = path.read_text().splitlines()
            for number, line in enumerate(lines, 1):
                if matches(line):
                    hits.append(f"{path.relative_to(ROOT).as_posix()}:{number}: {line}")
    return hits


def outside(hits, *owners):
    """The hits in files other than ``owners`` (``grep -v '^owner:'``)."""
    return [hit for hit in hits if not hit.startswith(tuple(f"{o}:" for o in owners))]


def files(hits):
    """The files the hits are in (``grep -rl``), sorted."""
    return sorted({hit.split(":", 1)[0] for hit in hits})


# ----------------------------------------------------------------------
# One serving process
# ----------------------------------------------------------------------


def test_no_command_body_compares_a_worker_count():
    assert not grep(r"(workers|processes) *(>=|<=|==|!=|>|<) *[0-9]", "src/repro/cli")


def test_the_old_selftest_entry_points_stay_gone():
    assert not grep(
        r"fleet_selftest|render_fleet_selftest|FleetSelftestReport"
        r"|selftest_checks|render_selftest|_cmd_serve_fleet",
        "src",
    )


def test_no_cli_module_exceeds_450_lines():
    for module in sorted((ROOT / "src" / "repro" / "cli").glob("*.py")):
        assert module.read_text().count("\n") <= 450, f"{module.name} exceeds 450 lines"


def test_nothing_under_src_boots_the_fleet():
    assert not grep("ServeFleet(", "src", fixed=True)


def test_only_the_package_exports_import_the_fleet():
    hits = grep(r"^\s*(from\s+\S*fleet\S*\s+import|import\s+\S*fleet)", "src/repro")
    assert not outside(hits, "src/repro/serve/__init__.py")


def test_chaos_has_no_serve_worker_flag():
    assert not grep("--serve-workers", "src", fixed=True)


def test_one_generator_per_run_on_the_callers_loop():
    assert not grep(
        r"run_loadgen_fleet|seq_start|arrival_stride|arrival_offset"
        r"|--processes|speedup|sustained_qps",
        "src",
    )


def test_only_the_fleet_forks_under_serve():
    hits = grep("multiprocessing", "src/repro/serve", fixed=True)
    assert not outside(hits, "src/repro/serve/fleet.py")


def test_one_run_relative_clock_under_serve_and_faults():
    assert len(grep(r"monotonic\(\) *-", "src/repro/serve", "src/repro/faults")) == 1


def test_one_public_client_rule():
    hits = grep('"resolver-population"', "src", fixed=True)
    assert not [hit for hit in hits if not hit.startswith("src/repro/resolver/")]


def test_edge_fleet_and_spec_field_counts():
    from repro.serve import ClusterConfig, FleetConfig, FleetSpec

    counts = [len(dataclasses.fields(x)) for x in (ClusterConfig, FleetConfig, FleetSpec)]
    assert counts == [8, 3, 3]


def test_the_dns_client_wraps_no_wait_in_wait_for():
    hits = grep("wait_for(", "src/repro/serve", fixed=True)
    assert not [hit for hit in hits if hit.startswith("src/repro/serve/dnsclient.py:")]


def test_no_asyncio_timeout_under_src():
    assert not grep("asyncio.timeout(", "src", fixed=True)


def test_no_wait_for_around_a_readline():
    """``grep -rlPz``: the call may be wrapped across a line break."""
    wrapped = re.compile(r"wait_for\(\s*\w+\.readline\(")
    assert not [
        path.relative_to(ROOT).as_posix()
        for path in sorted((ROOT / "src").rglob("*.py"))
        if wrapped.search(path.read_text())
    ]


# ----------------------------------------------------------------------
# One decision per policy
# ----------------------------------------------------------------------


def classes(module):
    tree = ast.parse((ROOT / "src" / "repro" / module).read_text())
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def methods(cls):
    return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_the_per_hop_query_path_stays_gone():
    assert not grep("_query_one", "src", fixed=True)


def test_policies_decide_in_bind_alone():
    policies = [
        cls for module in ("dns/policies.py", "apple/policy.py")
        for cls in classes(module) if cls.name.endswith("Policy") and cls.name != "AnswerPolicy"
    ]
    assert len(policies) == 7
    for cls in policies:
        assert "bind" in methods(cls), cls.name
        assert not methods(cls) & {"select", "answer"}, cls.name


def test_resolve_bulk_asks_no_unbound_answer():
    (chase,) = [
        node for node in ast.parse((ROOT / "src/repro/dns/resolver.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "resolve_bulk"
    ]
    calls = [
        node for node in ast.walk(chase)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert not [call for call in calls if call.func.attr == "answer"]


def test_no_option_or_config_field_was_added():
    from repro.faults.chaos import ChaosConfig
    from repro.simulation import ScenarioConfig

    assert len(grep("add_argument(", "src", fixed=True)) == 41
    assert len(dataclasses.fields(ScenarioConfig)) == 17
    assert len(dataclasses.fields(ChaosConfig)) == 5


# ----------------------------------------------------------------------
# One steering plane
# ----------------------------------------------------------------------


def test_no_hybrid_steering_anywhere():
    assert not grep("(?i)hybrid", "src")


def test_values_only_a_test_set_are_not_flags():
    assert not grep(
        r'"--(hybrid-dns-share|public-resolver-cache-capacity|error-budget)"', "src"
    )


def test_one_wire_answer_path():
    assert not grep(r"def answer_wire\b", "src")


def test_the_anycast_modules_stay_gone():
    package = ROOT / "src" / "repro"
    modules = [*package.glob("anycast/**/*.py"), package / "serve" / "steering.py",
               package / "cli" / "catchments.py"]
    assert not [module for module in modules if module.exists()]


def test_no_anycast_site_is_built():
    assert not grep("AnycastSite(", "src", fixed=True)


def test_one_mode_check_per_axis_left():
    assert not grep("unknown steering mode", "src", fixed=True)
    assert len(grep("unknown resolver population", "src", fixed=True)) == 1


def test_no_steering_flag_or_catchments_command():
    from repro.cli import build_parser

    assert not grep("--steering", "src", fixed=True)
    parser = build_parser()
    for argv in (["run", "--steering", "anycast"], ["catchments"]):
        with pytest.raises(SystemExit) as caught:
            parser.parse_args(argv)
        assert caught.value.code == 2, argv


def test_no_config_carries_a_steering_field():
    from repro.faults.chaos import ChaosConfig
    from repro.serve import ClusterConfig
    from repro.simulation import ScenarioConfig

    for config in (ScenarioConfig, ClusterConfig, ChaosConfig):
        assert "steering" not in {f.name for f in dataclasses.fields(config)}, config


def test_no_route_fault_kind():
    from repro.faults import FaultKind

    assert not [kind for kind in FaultKind if kind.value.startswith("route-")]
    assert not grep(r"route-(withdraw|prepend)|ROUTE_(WITHDRAW|PREPEND)", "src")


# ----------------------------------------------------------------------
# The replay written once
# ----------------------------------------------------------------------

SIM = "src/repro/simulation"
RESOLVER = "src/repro/dns/resolver.py"


def test_the_engine_and_checkpoints_never_name_the_isp_campaign():
    assert not grep("isp_campaign", f"{SIM}/engine.py", f"{SIM}/checkpoint.py")


def test_only_plan_shards_tells_the_isp_set_from_the_global_one():
    lines = (ROOT / SIM / "concurrency.py").read_text().splitlines()
    named, inside = [], False
    for number, line in enumerate(lines, 1):
        if line.startswith("def plan_shards"):
            inside = True
            continue
        if re.match(r"def|class|@", line):
            inside = False
        if not inside and "isp_campaign" in line:
            named.append(f"{number}: {line}")
    assert not named


def test_a_checkpoint_is_replayed_by_the_engine():
    assert not grep(r"advance_state\(|mark_fired\(", f"{SIM}/checkpoint.py")


@pytest.mark.parametrize("call", ["advance_state(", "mark_fired("])
def test_the_shard_chunk_loop_is_the_one_other_advance(call):
    assert len(grep(call, f"{SIM}/concurrency.py", fixed=True)) == 1


def test_a_schedule_becomes_a_fault_plane_in_one_place():
    hits = grep(r"CdnHealthMonitor\(|FaultInjector\(", "src")
    assert not outside(hits, "src/repro/faults/health.py")


def test_no_stochastic_shard_scaffolding():
    assert not grep(r"ShardRng|rng_states", "src")


def test_the_chase_builds_no_message_and_locks_no_view():
    assert not grep(r"cached_property|Question\.of\(|_query_one", RESOLVER)


def test_one_answer_record_and_one_chase():
    assert len(grep(r"^class _Answer:|^def resolve_bulk\(", RESOLVER)) == 2


def test_no_dns_response_from_the_answer_record_on():
    text = (ROOT / RESOLVER).read_text()
    assert "DnsResponse(" not in text[text.index("\nclass _Answer:"):]


def test_a_policy_is_bound_in_the_zone_alone():
    hits = grep("policy.bind(", "src", fixed=True)
    assert not outside(hits, "src/repro/dns/zone.py")


def test_a_policy_is_bound_at_one_call_site():
    assert len(grep("policy.bind(", "src", fixed=True)) == 1


# ----------------------------------------------------------------------
# The flow log is columns
# ----------------------------------------------------------------------

ENGINE = "src/repro/simulation/engine.py"


def test_a_flow_record_is_built_only_by_the_flow_log():
    assert not outside(grep("FlowRecord(", "src", fixed=True), "src/repro/isp/netflow.py")


def test_no_record_list_or_tuple_copy():
    assert not grep(r"tuple\(self\._records|list\[FlowRecord\]", "src")


def test_the_report_never_classifies_every_flow():
    assert not grep("classify_all(records)", "src/repro/analysis/report.py", fixed=True)


def test_the_report_classifies_the_rollup():
    assert grep("rollup(", "src/repro/analysis/report.py", fixed=True)


def test_a_shard_worker_drains_what_it_ships():
    assert not grep(
        r"records_since\(|\.mark\(\)|snapshot_bins\(\)", "src/repro/simulation/concurrency.py"
    )


def test_no_list_of_classified_flows():
    assert not grep("list(classifier.classify_all(", "src", "examples", fixed=True)


def test_no_collector_tuning_under_src():
    assert not grep(r"gc\.(disable|freeze|set_threshold)\(", "src")


def test_one_snmp_add_per_link_per_tick():
    assert len(grep("snmp.add_bytes(", ENGINE, fixed=True)) == 1


def test_no_per_flow_observe_or_destination_host():
    assert not grep(r"observe_exact\(|customer_prefix\.host\(", ENGINE)


def test_the_collector_has_no_per_row_observe():
    assert not grep("def observe(", "src/repro/isp/netflow.py", fixed=True)


def test_the_engine_has_no_sampling_rate_branch():
    assert not grep("sampling_rate == 1", ENGINE, fixed=True)


def test_the_static_isp_plane_keeps_no_change_tracking():
    """The RIB and the link set are built whole; nothing that followed
    their changes (candidate sets, epochs, the LPM memo, link state,
    plan invalidation) comes back under ``repro/isp`` or in the engine."""
    assert not grep(
        r"\b(epoch|_plan_epoch|_refresh_route_plans|_lpm_memo|LPM_MEMO_BOUND"
        r"|lookup_all|_lookup_above|_walk|route_preference|_route_digest"
        r"|route_count|install|add_link|fail_link|restore_link|is_up|up_links"
        r"|_down|lookup_prefix|candidates|withdraw)\b|\.routes\(\)|def routes\b",
        "src/repro/isp", ENGINE,
    )


def test_no_per_row_dns_append():
    assert not grep(
        r"DnsRowRef|add_dns_row|row_values|append_row_from|add_dns_values", "src"
    )


def test_only_a_campaign_tick_extends_the_dns_store():
    files = sorted({hit.partition(":")[0] for hit in grep("add_dns_block(", "src", fixed=True)})
    assert files == ["src/repro/atlas/campaign.py", "src/repro/atlas/results.py"]


def test_a_record_is_interned_with_a_dict_probe():
    assert not grep("lru_cache", "src/repro/dns/records.py", fixed=True)


def test_the_flow_log_keeps_one_timestamp_per_run():
    assert not grep('array("d", (timestamp,)) *', "src/repro/isp/netflow.py", fixed=True)


def test_one_answer_pool_per_vantage():
    assert not grep("POOL_MEMO_BOUND", "src", fixed=True)


def test_the_store_keeps_no_list_of_traceroutes():
    assert not grep("_traceroutes", "src/repro/atlas/results.py", fixed=True)


def test_answer_pools_are_address_values():
    assert not grep("tuple[IPv4Address", "src/repro/cdn/deployment.py", fixed=True)


def test_the_unbound_answer_policies_stay_gone():
    assert not grep(r"RegionSplitPolicy|RoundRobinAddressPolicy", "src")


# ----------------------------------------------------------------------
# One figure set per run
# ----------------------------------------------------------------------


def test_the_scoreboard_and_figure_benches_measure_nothing():
    assert not grep(
        r"summarize_offload\(|summarize_overflow\(|series_by_continent\(|discover_sites\(",
        "src/repro/analysis/scoreboard.py",
        "benchmarks/test_bench_fig3_sites.py",
        "benchmarks/test_bench_fig4_global_ips.py",
        "benchmarks/test_bench_fig7_offload.py",
        "benchmarks/test_bench_fig8_overflow.py",
        "benchmarks/test_bench_scoreboard.py",
    )


# ----------------------------------------------------------------------
# One container, one TTL cache
# ----------------------------------------------------------------------

PICKLE_OWNERS = ("src/repro/simulation/checkpoint.py", "src/repro/serve/snapshot.py")


def test_atomic_writes_live_in_the_container():
    hits = grep(r"os\.replace\(|os\.fsync\(", "src/repro")
    assert not outside(hits, "src/repro/container.py")


def test_only_the_payload_owners_unpickle():
    assert not outside(grep("pickle.loads(", "src/repro", fixed=True), *PICKLE_OWNERS)


@pytest.mark.parametrize("owner", PICKLE_OWNERS)
def test_each_payload_owner_unpickles_once(owner):
    assert len(grep("pickle.loads(", owner, fixed=True)) == 1


def test_ttl_eviction_lives_in_the_ttl_cache():
    """No ``min(`` keyed on ``expires_at`` within three lines of its call
    (``grep -A3 'min('``) outside ``dns/ttlcache.py``."""
    keyed = re.compile(r"(key=|lambda).*expires_at")
    hits = []
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        lines = path.read_text().splitlines()
        opened = [n for n, line in enumerate(lines) if "min(" in line]
        near = sorted({n + k for n in opened for k in range(4) if n + k < len(lines)})
        hits += [
            f"{path.relative_to(ROOT).as_posix()}:{n + 1}: {lines[n]}"
            for n in near if keyed.search(lines[n])
        ]
    assert not outside(hits, "src/repro/dns/ttlcache.py")


def test_oldest_out_eviction_lives_in_the_wire_memo_helper():
    """The codec's memos and the two DNS responders' answer memos all
    evict through ``dns.wire._remember``: one ``del …[next(iter(…))]``."""
    hits = grep(r"del [\w.]+\[next\(iter\(", "src/repro")
    assert len(hits) == 1 and files(hits) == ["src/repro/dns/wire.py"], hits
    for responder in ("serve/dnsserver.py", "serve/resolverfront.py"):
        assert grep("_remember(", f"src/repro/{responder}", fixed=True)


# ----------------------------------------------------------------------
# The live edge written once
# ----------------------------------------------------------------------


def test_one_http_reason_table():
    assert not outside(grep('"Partial Content"|"Bad Request"', "src"), "src/repro/http/wire.py")


def test_no_per_line_head_reads_on_the_edge():
    assert not grep("readline()", "src/repro/serve", "src/repro/http", fixed=True)


def test_one_head_reader():
    assert files(grep(r"def read_head\(", "src")) == ["src/repro/http/wire.py"]


def test_one_tcp_listener_under_serve():
    hits = grep(r"start_server\(|create_server\(", "src/repro/serve")
    assert not outside(hits, "src/repro/serve/listener.py")


def test_the_listener_keeps_no_stream_based_tcp_path():
    assert not grep(r"Stream(Reader|Writer)|start_server\(", "src/repro/serve/listener.py")


def test_socket_reads_are_sized_in_one_module():
    assert files(grep(r"\.max_size *=", "src")) == ["src/repro/serve/udp.py"]


def test_client_connections_are_opened_in_one_module():
    hits = grep(r"open_connection\(|create_connection\(", "src/repro/serve")
    assert not outside(hits, "src/repro/serve/udp.py")


def test_one_timer_mechanism_under_serve():
    """Timeouts are ``Alarm``s (``deadline`` is one); the kept guard is gone."""
    assert files(grep("call_at(", "src/repro/serve", fixed=True)) == [
        "src/repro/serve/deadline.py"
    ]
    assert not grep(r"\.kept\(|def kept\(", "src")


def test_one_load_report_construction():
    assert len(grep("LoadReport(", "src", fixed=True)) == 1


def test_the_campaign_grid_has_no_private_next_due():
    assert not grep(r"(^|[^A-Za-z0-9_])_next_due", "src")


# ----------------------------------------------------------------------
# One recovery path
# ----------------------------------------------------------------------


def test_the_in_run_supervisor_stays_gone():
    assert not grep(
        r"heartbeat|respawn|incarnation|quarantine|debug_corrupt|max_restarts"
        r"|_reconcile_digests|WORKER_(KILL|STALL)|worker-(kill|stall)",
        "src",
    )


def test_a_lost_worker_is_raised_where_chunks_are_collected():
    assert files(grep("ShardWorkerLost(", "src", fixed=True)) == [
        "src/repro/simulation/concurrency.py"
    ]


def test_a_lost_worker_becomes_an_exit_code_in_one_place():
    assert files(grep(r"except ShardWorkerLost", "src")) == [
        "src/repro/cli/__init__.py", "src/repro/simulation/concurrency.py",
    ]


# ----------------------------------------------------------------------
# The settable surface
# ----------------------------------------------------------------------


def test_no_environment_variable_is_read():
    assert not grep(r"os\.environ|os\.getenv", "src")


def test_the_public_population_stays_gone():
    from repro.resolver import POPULATIONS

    assert "public" not in POPULATIONS, POPULATIONS


def test_the_level3_ablation_stays_gone():
    assert not grep(r"include_level3|LEVEL3_PLAN", "src")


def test_each_allowed_exception_is_one_line_with_its_kind():
    lines = (ROOT / "tests" / "test_settable_surface.py").read_text().splitlines()
    start = lines.index("ALLOWED = {") + 1
    end = lines.index("}", start)
    entry = re.compile(r'^    "[^"]+": "(fake|roadmap|bound): [^"]+",$')
    assert not [line for line in lines[start:end] if not entry.match(line)]


# ----------------------------------------------------------------------
# Telemetry nothing reads stays gone
# ----------------------------------------------------------------------


def test_the_unread_telemetry_stays_gone():
    from repro.cli import build_parser

    package = ROOT / "src" / "repro"
    modules = ("serve/admin.py", "cli/top.py", "cli/profile.py", "obs/flight.py")
    assert not [module for module in modules if (package / module).exists()]
    assert not grep(r"--admin-port|--flight-dir|flight_recorder|AdminServer|from_cumulative", "src")
    parser = build_parser()
    for argv in (["top"], ["profile"], ["serve", "--admin-port", "9900"],
                 ["simulate", "--flight-dir", "x"]):
        with pytest.raises(SystemExit) as caught:
            parser.parse_args(argv)
        assert caught.value.code == 2, argv
