"""The parser's flag table, pinned to the commit before the flag-group split.

``PARENT_SURFACE`` was dumped by :func:`parser_surface` from the
1275-line single-module ``repro/cli.py`` (commit 1d36fcb); the package
that replaced it declares flags once per group, and this is the
contract that the regrouping added, removed, renamed and re-defaulted
nothing: ``{command: {dest: (flags, default, type, choices, required,
nargs, action, metavar)}}`` must come out equal.  Help texts are not
pinned — shared flags now share one wording.
"""

import argparse

from repro.cli import build_parser


def subparsers(parser):
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices


def parser_surface(parser):
    return {
        name: {
            a.dest: (
                tuple(a.option_strings), a.default,
                a.type.__name__ if a.type is not None else None,
                tuple(a.choices) if a.choices is not None else None,
                a.required, a.nargs, type(a).__name__, a.metavar,
            )
            for a in sub._actions if a.dest != "help"
        }
        for name, sub in subparsers(parser).items()
    }


PARENT_SURFACE = {
    'simulate': {
        'start': (('--start',), '9-17', None, None, False, None, '_StoreAction', 'M-D'),
        'end': (('--end',), '9-21', None, None, False, None, '_StoreAction', 'M-D'),
        'step': (('--step',), 1800.0, 'float', None, False, None, '_StoreAction', None),
        'probes': (('--probes',), 60, 'int', None, False, None, '_StoreAction', None),
        'isp_probes': (('--isp-probes',), 30, 'int', None, False, None, '_StoreAction', None),
        'workers': (('--workers',), 1, 'int', None, False, None, '_StoreAction', None),
        'store_budget_mb': (('--store-budget-mb',), None, 'float', None, False, None, '_StoreAction', 'MB'),
        'store_spill_dir': (('--store-spill-dir',), None, None, None, False, None, '_StoreAction', 'DIR'),
        'metrics_out': (('--metrics-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'trace_out': (('--trace-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'verbose': (('--verbose',), False, None, None, False, 0, '_StoreTrueAction', None),
    },
    'run': {
        'start': (('--start',), '9-17', None, None, False, None, '_StoreAction', 'M-D'),
        'end': (('--end',), '9-21', None, None, False, None, '_StoreAction', 'M-D'),
        'step': (('--step',), 1800.0, 'float', None, False, None, '_StoreAction', None),
        'probes': (('--probes',), 60, 'int', None, False, None, '_StoreAction', None),
        'isp_probes': (('--isp-probes',), 30, 'int', None, False, None, '_StoreAction', None),
        'workers': (('--workers',), 1, 'int', None, False, None, '_StoreAction', None),
        'store_budget_mb': (('--store-budget-mb',), None, 'float', None, False, None, '_StoreAction', 'MB'),
        'store_spill_dir': (('--store-spill-dir',), None, None, None, False, None, '_StoreAction', 'DIR'),
        'metrics_out': (('--metrics-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'trace_out': (('--trace-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'verbose': (('--verbose',), False, None, None, False, 0, '_StoreTrueAction', None),
    },
    'report': {
        'probes': (('--probes',), 80, 'int', None, False, None, '_StoreAction', None),
        'isp_probes': (('--isp-probes',), 40, 'int', None, False, None, '_StoreAction', None),
        'step': (('--step',), 1800.0, 'float', None, False, None, '_StoreAction', None),
        'workers': (('--workers',), 1, 'int', None, False, None, '_StoreAction', None),
        'store_budget_mb': (('--store-budget-mb',), None, 'float', None, False, None, '_StoreAction', 'MB'),
        'store_spill_dir': (('--store-spill-dir',), None, None, None, False, None, '_StoreAction', 'DIR'),
        'metrics_out': (('--metrics-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'trace_out': (('--trace-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'verbose': (('--verbose',), False, None, None, False, 0, '_StoreTrueAction', None),
    },
    'survey': {
    },
    'serve': {
        'host': (('--host',), '127.0.0.1', None, None, False, None, '_StoreAction', None),
        'dns_port': (('--dns-port',), 5333, 'int', None, False, None, '_StoreAction', None),
        'http_port': (('--http-port',), 8080, 'int', None, False, None, '_StoreAction', None),
        'object_size': (('--object-size',), 262144, 'int', None, False, None, '_StoreAction', None),
        'resolver_port': (('--resolver-port',), 0, 'int', None, False, None, '_StoreAction', None),
        'resolver_population': (('--resolver-population',), 'isp', None, ('isp', 'mixed'), False, None, '_StoreAction', None),
        'public_resolver_share': (('--public-resolver-share',), 0.5, 'float', None, False, None, '_StoreAction', 'FRACTION'),
        'public_resolver_ecs': (('--public-resolver-ecs',), 'on', None, ('on', 'off'), False, None, '_StoreAction', None),
        'public_resolver_scope': (('--public-resolver-scope',), 24, 'int', None, False, None, '_StoreAction', 'BITS'),
    },
    'loadgen': {
        'dns': (('--dns',), None, None, None, True, None, '_StoreAction', 'HOST:PORT'),
        'http': (('--http',), None, None, None, True, None, '_StoreAction', 'HOST:PORT'),
        'requests': (('--requests',), 1000, 'int', None, False, None, '_StoreAction', None),
        'concurrency': (('--concurrency',), 32, 'int', None, False, None, '_StoreAction', None),
        'arrival': (('--arrival',), None, None, ('flash-crowd', 'uniform'), False, None, '_StoreAction', None),
        'duration': (('--duration',), None, 'float', None, False, None, '_StoreAction', None),
        'trace_sample': (('--trace-sample',), 1.0, 'float', None, False, None, '_StoreAction', 'RATE'),
        'trace_out': (('--trace-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'resolver': (('--resolver',), None, None, None, False, None, '_StoreAction', 'HOST:PORT'),
        'public_resolver_share': (('--public-resolver-share',), 0.0, 'float', None, False, None, '_StoreAction', 'FRACTION'),
    },
    'selftest': {
        'requests': (('--requests',), 5000, 'int', None, False, None, '_StoreAction', None),
        'concurrency': (('--concurrency',), 64, 'int', None, False, None, '_StoreAction', None),
        'qps_floor': (('--qps-floor',), 1000.0, 'float', None, False, None, '_StoreAction', None),
        'trace_sample': (('--trace-sample',), 1.0, 'float', None, False, None, '_StoreAction', 'RATE'),
        'trace_out': (('--trace-out',), None, None, None, False, None, '_StoreAction', 'PATH'),
        'arrival': (('--arrival',), None, None, ('flash-crowd', 'uniform'), False, None, '_StoreAction', None),
        'duration': (('--duration',), None, 'float', None, False, None, '_StoreAction', None),
        'resolver_population': (('--resolver-population',), 'isp', None, ('isp', 'mixed'), False, None, '_StoreAction', None),
        'public_resolver_share': (('--public-resolver-share',), 0.5, 'float', None, False, None, '_StoreAction', 'FRACTION'),
        'public_resolver_ecs': (('--public-resolver-ecs',), 'on', None, ('on', 'off'), False, None, '_StoreAction', None),
        'public_resolver_scope': (('--public-resolver-scope',), 24, 'int', None, False, None, '_StoreAction', 'BITS'),
    },
}


def test_parser_surface_matches_parent_commit():
    surface = parser_surface(build_parser())
    assert sorted(surface) == sorted(PARENT_SURFACE)
    for command, flags in PARENT_SURFACE.items():
        assert surface[command] == flags, command


def test_every_command_dispatches_to_one_body():
    commands = subparsers(build_parser())
    for name, sub in commands.items():
        handler = sub.get_default("handler")
        assert callable(handler), name
        assert handler.__module__.startswith("repro.cli."), name
    assert (commands["run"].get_default("handler")
            is commands["simulate"].get_default("handler"))
