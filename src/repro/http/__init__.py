"""HTTP substrate: messages, the HTTP/1 head codec (:mod:`repro.http.wire`)
and the Via / X-Cache header conventions that Section 3.3's edge-site
structure inference relies on."""

from .headers import (
    TRAFFIC_SERVER_AGENT,
    CacheStatus,
    ViaEntry,
    parse_via,
    parse_x_cache,
    record_cache_hop,
)
from .messages import Headers, HttpRequest, HttpResponse

__all__ = [
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "CacheStatus",
    "ViaEntry",
    "parse_via",
    "parse_x_cache",
    "record_cache_hop",
    "TRAFFIC_SERVER_AGENT",
]
