"""Nothing under ``repro`` is settable or callable that only its own test
sets or calls.

*Settable.*  Every defaulted parameter of a module-level function or a
method, and every defaulted dataclass field, needs a setter outside
``tests/``: a call under ``src/``, ``benchmarks/`` or ``examples/`` that
passes it by keyword, reaches its position (a ``*args`` reaches every
later one), forwards a ``**mapping`` holding its name as a key, or
forwards its own ``**kwargs`` (followed to that function's callers).  A
dataclass field is also set by ``replace(..., name=)`` and by an
attribute write (``obj.name = ...``, ``+=``, ``.append(...)``): such a
field is state the program keeps, not an option.  Calls are matched by
callee name, so a same-named callable's setter counts too; the scan errs
towards finding a setter.  Names with a leading underscore, dunder
methods, ``ClassVar`` and ``field(init=False)`` are not surface.

A value nothing outside the tests sets is a module constant that tests
monkeypatch.  The exceptions are :data:`ALLOWED`, one line each, of
three kinds: ``fake`` (a test substitutes a clock, registry, tracer or
stream), ``roadmap`` (a value a ROADMAP item needs) and ``bound`` (a size
a test must shrink to stay fast, where a monkeypatch cannot reach).

*Callable.*  Every public module-level function and method under
``repro`` is named outside ``tests/`` (as a name or an attribute,
anywhere under ``src/``, ``benchmarks/`` or ``examples/``), is an
asyncio protocol hook (:data:`PROTOCOL_HOOKS`: the event loop calls
those), or is in :data:`SEAMS`.  The methods and functions in
:data:`SEAMS` are called by tests only, and stay because the tests reach
real behaviour through them — most are the reference a faster path is
compared against; each must stay test-only (a production caller takes it
off the list).  :data:`DELETED` were test-only and tested nothing else,
only restated another call, lost their one production caller, or
changed a table the run treats as fixed; they stay gone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples")

ALLOWED = {
    "analysis/offload.py:operator_series(bin_seconds=)": "roadmap: item 5 (ii) checks the 5.3 SNMP correction on daily bins",
    "analysis/offload.py:operator_series(collector=)": "roadmap: item 5 (ii) reports Figures 7/8 through the SNMP correction",
    "analysis/offload.py:operator_series(snmp=)": "roadmap: item 5 (ii) reports Figures 7/8 through the SNMP correction",
    "dns/reverse.py:scan_ptr_records(addresses=)": "bound: a full /16 PTR sweep is 65 536 queries; the 3.3 test sweeps the estate",
    "isp/netflow.py:NetflowCollector.__init__(flow_bytes=)": "roadmap: item 5 (ii) sampled Netflow, whose flow size the tests set",
    "obs/tracer.py:EventTracer.__init__(stream=)": "fake: tests hand the tracer a StringIO to read its JSONL",
    "serve/loadgen.py:LoadConfig(dns_timeout=)": "roadmap: item 1 left the client's wire timeout and HTTP retries to be judged",
    "serve/loadgen.py:LoadConfig(http_retries=)": "roadmap: item 1 left the client's wire timeout and HTTP retries to be judged",
    "simulation/engine.py:SimulationEngine.__init__(clock=)": "fake: tests stamp phase timings with a deterministic clock",
    "simulation/engine.py:SimulationEngine.__init__(metrics=)": "fake: tests read the engine's counters from their own registry",
    "simulation/engine.py:SimulationEngine.__init__(tracer=)": "fake: tests read the engine's spans from their own tracer",
    "simulation/scenario.py:ScenarioConfig(netflow_sampling=)": "roadmap: item 5 (ii) runs Figures 7/8 at sampling 1, 1/100, 1/1000",
    "simulation/scenario.py:ScenarioConfig(store_segment_rows=)": "bound: sharded tests need small segments inside worker processes",
}

SEAMS = {
    "analysis/enumeration.py:EnumerationResult.hit_ratio": "the 3.3 enumeration tests check that only some candidates resolve with it",
    "analysis/enumeration.py:enumerate_names": "the 3.3 enumeration tests find the estate's edge-bx names through the forward zone with it",
    "analysis/offload.py:summarize_offload": "the per-flow Figure 7 reference fold_traffic's offload half is compared against",
    "analysis/overflow.py:summarize_overflow": "the per-flow Figure 8 reference fold_traffic's overflow half is compared against",
    "apple/mapping.py:MetaCdnEstate.deployment_at": "the router-parity tests check which fleet owns each address with it",
    "atlas/probe.py:AtlasProbe.measure_dns": "the one-probe reference a campaign's tick block is compared against",
    "atlas/results.py:MeasurementStore.add_dns": "the row-wise append a DNS block append is compared against",
    "atlas/results.py:MeasurementStore.add_traceroute": "the row-wise append a traceroute block append is compared against",
    "atlas/results.py:MeasurementStore.segment_summaries": "the block and columnar tests compare segment layouts with it",
    "atlas/results.py:TracerouteMeasurement.reached": "the traceroute tests check that a path ends at its destination with it",
    "cdn/cache.py:CacheStats.hit_ratio": "the cache model test checks the hit accounting with it",
    "cdn/cache.py:ContentCache.evict": "the cache model test and a forced origin miss go through it",
    "cdn/cache.py:ContentCache.used_bytes": "the cache model test checks the byte accounting with it",
    "cdn/deployment.py:CdnDeployment.servers_in_region": "exposure and pool tests count a region's fleet with it",
    "dns/query.py:DnsResponse.is_empty": "the IPv6-absence tests assert NODATA with it",
    "dns/reverse.py:address_from_reverse_name": "the reverse-name tests check the in-addr.arpa round trip with it",
    "dns/reverse.py:build_ptr_zone": "the 3.3 tests serve the estate's reverse table with it",
    "dns/reverse.py:scan_ptr_records": "the 3.3 tests walk the PTR zone and feed site discovery with it",
    "http/messages.py:Headers.get_all": "the header model test compares repeated fields with it",
    "isp/classify.py:TrafficClassifier.classify": "the per-flow reference classify_all is compared against",
    "isp/netflow.py:NetflowCollector.sampled_bytes": "the 5.3 sampling tests check 1-in-N collection with it",
    "obs/export.py:parse_exposition": "the export and CLI tests read render_exposition and --metrics-out back with it",
    "obs/trace_context.py:TraceChain.complete": "the trace tests keep only the chains whose root span closed with it",
    "obs/trace_context.py:assemble_chains": "the trace tests join client, DNS and HTTP spans into one chain per trace with it",
    "isp/topology.py:EyeballIsp.is_direct_peer": "the scenario tests check the ISP's peering with it",
    "simulation/engine.py:RunSummary.from_run": "the golden runs digest the summary it builds",
    "simulation/engine.py:RunSummary.to_json_dict": "the golden runs digest the summary in the canonical form it returns",
    "workload/population.py:DevicePopulation.scaled": "the adoption test doubles the installed base with it to check the surge scales",
}

#: Called by the asyncio event loop on a protocol object; no line names them.
PROTOCOL_HOOKS = frozenset({
    "connection_made", "connection_lost", "data_received", "eof_received",
    "datagram_received", "error_received", "pause_writing", "resume_writing",
})

DELETED = (
    "cdn/deployment.py:ExposureController.smoothed_gbps",
    "cdn/server.py:CacheServer.is_cache",
    "cdn/server.py:CacheServer.is_load_balancer",
    "dns/policies.py:WeightSchedule.change_times",
    "dns/policies.py:WeightSchedule.targets_at",
    "dns/resolver.py:RecursiveResolver.cache_key",
    "dns/resolver.py:RecursiveResolver.cache_size",
    "dns/resolver.py:RecursiveResolver.chases_as",
    "dns/resolver.py:RecursiveResolver.sweep",
    "dns/resolver.py:ResolverCacheStats.hit_ratio",
    "dns/trace.py:dig_trace",
    "isp/bgp.py:BgpRib.candidates",
    "isp/bgp.py:BgpRib.install",
    "isp/bgp.py:BgpRib.lookup_all",
    "isp/bgp.py:BgpRib.route_count",
    "isp/bgp.py:BgpRib.routes",
    "isp/bgp.py:BgpRib.withdraw",
    "isp/bgp.py:route_preference",
    "isp/netflow.py:NetflowCollector.records_between",
    "isp/topology.py:EyeballIsp.add_link",
    "isp/topology.py:EyeballIsp.fail_link",
    "isp/topology.py:EyeballIsp.is_up",
    "isp/topology.py:EyeballIsp.neighbors",
    "isp/topology.py:EyeballIsp.restore_link",
    "isp/topology.py:EyeballIsp.routers",
    "isp/topology.py:EyeballIsp.up_links",
    "net/ipv4.py:IPv4Prefix.subnets",
    "net/trie.py:PrefixTrie.lookup_prefix",
    "obs/trace_context.py:set_context",
    "resolver/pops.py:ResolverPop.context",
    "serve/fleet.py:ServeFleet.http_endpoint",
    "serve/fleet.py:ServeFleet.resolver_endpoint",
    "serve/fleet.py:ServeFleet.worker_errors",
    "serve/loadgen.py:merge_load_reports",
)


# ----------------------------------------------------------------------
# definitions
# ----------------------------------------------------------------------


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _decorators(node):
    return {_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _is_dataclass(cls):
    return "dataclass" in _decorators(cls) or "NamedTuple" in {_name(b) for b in cls.bases}


def _not_init(value):
    return (
        isinstance(value, ast.Call) and _name(value.func) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False
                for k in value.keywords)
    )


def _parameters(fn, method):
    """(name, position or None, defaulted) of ``fn``'s parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and "staticmethod" not in _decorators(fn):
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i, i >= first_default) for i, a in enumerate(positional)]
    out += [(a.arg, None, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def definitions():
    """(callee name, label, parameters, is_dataclass) for all of repro."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((node.name, f"{module}:{node.name}",
                              _parameters(node, False), False))
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields = [
                    st for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                    and "ClassVar" not in ast.unparse(st.annotation)
                    and not _not_init(st.value)
                ]
                found.append((node.name, f"{module}:{node.name}", [
                    (st.target.id, i, st.value is not None) for i, st in enumerate(fields)
                ], True))
            for st in node.body:
                if not isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if st.name == "__init__":
                    found.append((node.name, f"{module}:{node.name}.__init__",
                                  _parameters(st, True), False))
                elif not st.name.startswith("__"):
                    found.append((st.name, f"{module}:{node.name}.{st.name}",
                                  _parameters(st, True), False))
    return found


# ----------------------------------------------------------------------
# setters
# ----------------------------------------------------------------------

_MUTATORS = {"append", "add", "extend", "update", "setdefault", "pop", "clear",
             "discard", "remove", "insert", "appendleft", "popleft"}


class Setters(ast.NodeVisitor):
    """What the calls of the scanned files set, by callee name."""

    def __init__(self):
        self.by_callee = {}        # name -> {keyword, position, ("from", i), "**"}
        self.forwards = set()      # (function forwarding its **kwargs, callee)
        self.mapping_keys = set()  # string keys of dict displays / item writes
        self.written = set()       # attribute names written or mutated
        self.replaced = set()      # keywords of replace(...)
        self._classes = []
        self._functions = []

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        kwarg = node.args.kwarg.arg if node.args.kwarg else None
        self._functions.append((node.name, kwarg))
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Dict(self, node):
        self.mapping_keys.update(
            k.value for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        )
        self.generic_visit(node)

    def _write(self, target):
        while isinstance(target, ast.Subscript):
            if isinstance(target.slice, ast.Constant) and isinstance(target.slice.value, str):
                self.mapping_keys.add(target.slice.value)
            target = target.value
        if isinstance(target, ast.Attribute):
            self.written.add(target.attr)

    def visit_Assign(self, node):
        for target in node.targets:
            self._write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._write(node.target)
        self.generic_visit(node)

    def _callees(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "cls" and self._classes:
            return [self._classes[-1].name]
        if isinstance(func, ast.Call) and _name(func.func) == "type" and self._classes:
            return [self._classes[-1].name]
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call) and _name(func.value.func) == "super"
                and self._classes):
            return [_name(base) for base in self._classes[-1].bases]
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            self._write(func.value)
        return [_name(func)]

    def _record(self, callee, args, keywords):
        got = self.by_callee.setdefault(callee, set())
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                got.add(("from", index))
                break
            got.add(index)
        for keyword in keywords:
            if keyword.arg is not None:
                got.add(keyword.arg)
            elif (self._functions and isinstance(keyword.value, ast.Name)
                  and keyword.value.id == self._functions[-1][1]):
                self.forwards.add((self._functions[-1][0], callee))
            else:
                got.add("**")

    def visit_Call(self, node):
        name = _name(node.func)
        if name == "replace":
            self.replaced.update(k.arg for k in node.keywords if k.arg)
        elif name == "partial" and node.args:
            self._record(_name(node.args[0]), node.args[1:], node.keywords)
        else:
            for callee in self._callees(node):
                self._record(callee, node.args, node.keywords)
        self.generic_visit(node)

    def follow_forwards(self):
        changed = True
        while changed:
            changed = False
            for source, target in self.forwards:
                passed = {g for g in self.by_callee.get(source, ()) if isinstance(g, str)}
                got = self.by_callee.setdefault(target, set())
                if not passed <= got:
                    got |= passed
                    changed = True


def outside_tests(roots=CALLERS):
    for top in roots:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def unset_parameters():
    """Every defaulted parameter / field with no setter outside tests."""
    setters = Setters()
    for path in outside_tests():
        setters.visit(ast.parse(path.read_text()))
    setters.follow_forwards()
    unset = []
    for callee, label, parameters, is_dataclass in definitions():
        got = setters.by_callee.get(callee, set())
        for name, position, defaulted in parameters:
            if not defaulted or name.startswith("_"):
                continue
            if name in got or ("**" in got and name in setters.mapping_keys):
                continue
            if position is not None and (
                position in got
                or any(isinstance(g, tuple) and g[1] <= position for g in got)
            ):
                continue
            if is_dataclass and (name in setters.replaced or name in setters.written):
                continue
            unset.append(f"{label}({name}=)")
    return unset


def names_used_outside_tests():
    used = set()
    for path in outside_tests():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def unset():
    return unset_parameters()


def test_every_defaulted_parameter_and_field_has_a_setter_outside_tests(unset):
    offenders = sorted(set(unset) - set(ALLOWED))
    assert not offenders, (
        "settable only by tests (make each a constant, or allow it with a "
        "reason):\n  " + "\n  ".join(offenders)
    )


def test_every_allowed_entry_gives_its_kind_and_is_still_unset(unset):
    for entry, reason in ALLOWED.items():
        kind, _, why = reason.partition(": ")
        assert kind in ("fake", "roadmap", "bound") and why.strip(), entry
        assert entry in unset, f"{entry} has a setter now; drop it from ALLOWED"


def _defined(entry):
    """Whether ``module:Class.method`` or ``module:function`` is defined."""
    module, _, qualname = entry.partition(":")
    tree = ast.parse((PACKAGE / module).read_text())
    owner, _, method = qualname.partition(".")
    for node in tree.body:
        if not method and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == owner:
                return True
        if isinstance(node, ast.ClassDef) and node.name == owner:
            return any(
                isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)) and st.name == method
                for st in node.body
            )
    return False


def _callee(entry):
    """The name a call of ``module:Class.method`` / ``module:function`` uses."""
    return entry.partition(":")[2].rpartition(".")[2]


def public_callables():
    """``(name, label)`` of every public module-level function and method."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, f"{module}:{node.name}"
            elif isinstance(node, ast.ClassDef):
                for st in node.body:
                    if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield st.name, f"{module}:{node.name}.{st.name}"


def test_every_public_callable_is_named_outside_tests_or_a_seam():
    used = names_used_outside_tests()
    offenders = [
        label for name, label in public_callables()
        if not name.startswith("_") and name not in used
        and name not in PROTOCOL_HOOKS and label not in SEAMS
    ]
    assert not offenders, (
        "called by tests only (delete it, or make it a SEAM with a reason):\n  "
        + "\n  ".join(offenders)
    )


def test_seams_are_defined_and_called_by_tests_only():
    used = names_used_outside_tests()
    for entry, reason in SEAMS.items():
        assert reason.strip(), entry
        assert _defined(entry), f"{entry} is gone; drop it from SEAMS"
        assert _callee(entry) not in used, f"{entry} has a caller now; drop it from SEAMS"


def test_deleted_test_only_methods_stay_deleted():
    for entry in DELETED:
        assert not _defined(entry), entry
