"""``repro serve``: boot the live DNS + HTTP serving layer on loopback
and keep it up for external clients (``dig``, ``curl``, the loadgen)."""

from __future__ import annotations

import argparse

from ..serve import ClusterConfig, serve_forever
from . import flags


def register(commands) -> None:
    sub = commands.add_parser(
        "serve", help="boot the live DNS + HTTP serving layer and keep it up"
    )
    sub.add_argument("--host", default="127.0.0.1",
                     help="address to bind both servers on (default loopback)")
    sub.add_argument("--dns-port", type=int, default=5333,
                     help="DNS port, UDP and TCP (default 5333; 0 = ephemeral)")
    sub.add_argument("--http-port", type=int, default=8080,
                     help="HTTP edge port (default 8080; 0 = ephemeral)")
    sub.add_argument("--object-size", type=int, default=262_144,
                     help="modelled entity size in bytes (default 256 KiB)")
    sub.add_argument("--resolver-port", type=int, default=0,
                     help="UDP port for the public-resolver front when a "
                          "public population is enabled (default 0 = "
                          "ephemeral)")
    flags.add_resolver_flags(sub)
    sub.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    try:
        for flag, port in (("--dns-port", args.dns_port),
                           ("--http-port", args.http_port),
                           ("--resolver-port", args.resolver_port)):
            flags.check_port(port, flag)
        config = ClusterConfig(
            object_size=args.object_size, **flags.resolver_config_kwargs(args)
        )
        serve_forever(
            config, print,
            host=args.host, dns_port=args.dns_port, http_port=args.http_port,
            resolver_port=args.resolver_port,
        )
    except KeyboardInterrupt:
        print("\nstopped")
    except ValueError as exc:
        # A bad flag value is refused before anything boots.
        raise SystemExit(f"serve: {exc}") from exc
    except OSError as exc:
        # A port another process holds ("cannot bind UDP host:port: …",
        # see Listener.start): nothing is left bound.
        raise SystemExit(f"serve: {exc}") from exc
    return 0
