"""Live anycast steering: route HTTP connections by catchment, not DNS.

The DNS answer tells a client which unicast vip to fetch from; under
anycast the network decides instead.  This module wraps the estate
router so the edge re-routes each connection to the backend vip of the
site whose catchment the client falls in — evaluated against the
cluster's fault schedule at the *current* cluster clock, so a
``route-withdraw`` window moves live traffic the instant it opens,
with no DNS TTL to wait out and nothing for health probes to notice.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..anycast.plane import AnycastPlane, AnycastSite, ClientGroup
from ..apple.mapping import MetaCdnEstate
from ..faults.schedule import FaultSchedule
from ..net.ipv4 import IPv4Address
from ..obs import get_registry
from .clients import ClientDirectory
from .httpserver import Router, estate_router

__all__ = ["build_serve_plane", "anycast_router"]


def build_serve_plane(
    estate: MetaCdnEstate,
    directory: ClientDirectory,
    schedule: Optional[FaultSchedule] = None,
) -> AnycastPlane:
    """An anycast plane over the estate's Apple sites and the vantages.

    The client populations are the directory's vantage prefixes — the
    same CGNAT blocks the load generator samples clients from — so
    every generated request lands in a known catchment.
    """
    groups = [
        ClientGroup(
            name=vantage.name,
            prefix=vantage.prefix,
            continent=vantage.continent,
            coordinates=vantage.coordinates,
        )
        for vantage in directory.vantages
    ]
    return AnycastPlane(
        AnycastSite.of_apple(estate.apple), groups, schedule=schedule
    )


def anycast_router(
    estate: MetaCdnEstate,
    plane: AnycastPlane,
    clock: Callable[[], float],
    metrics=None,
) -> Router:
    """Wrap the estate router with catchment-based connection routing.

    Requests whose client is outside every known population (or whose
    ``X-Client`` header is absent/unparseable) fall back to the
    DNS-answered vip — exactly what a unicast-only client would do.
    """
    base = estate_router(estate)
    registry = metrics if metrics is not None else get_registry()
    routed = registry.counter(
        "serve_anycast_routed_total",
        "Connections routed to a site by its anycast catchment",
        ("site",),
    )

    def route(vip, request, size):
        client_text = request.headers.get("X-Client") or ""
        try:
            client = IPv4Address.parse(client_text)
        except ValueError:
            return base(vip, request, size)
        site = plane.site_for(client, clock())
        if site is None:
            return base(vip, request, size)
        routed.labels(site.site_id).inc()
        return base(site.backend_vip, request, size)

    return route
