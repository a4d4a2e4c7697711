"""Structure checks: deletions and single owners that no behaviour test sees.

Each test is one check of a CI structure step, ported 1:1 from its
``grep`` so tier-1 runs it too.  A check reads the source tree as text,
line by line, the way ``grep -rn --include='*.py'`` does; a hit prints
as ``path:line: text``.

*One serving process* (CI: "One serving process"): every command serves
from the in-process single loop; the forked ``SO_REUSEPORT`` fleet is
kept only for the perf ledger's fleet row, and nothing under ``src/``
boots it.
"""

import dataclasses
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def grep(pattern, *roots, fixed=False):
    """``grep -rn[F|E] pattern roots --include='*.py'``, as ``path:n: line``."""
    matches = (lambda line: pattern in line) if fixed else re.compile(pattern).search
    hits = []
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            lines = path.read_text().splitlines()
            for number, line in enumerate(lines, 1):
                if matches(line):
                    hits.append(f"{path.relative_to(ROOT).as_posix()}:{number}: {line}")
    return hits


def outside(hits, *owners):
    """The hits in files other than ``owners`` (``grep -v '^owner:'``)."""
    return [hit for hit in hits if not hit.startswith(tuple(f"{o}:" for o in owners))]


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
    assert counts == [9, 3, 3]
