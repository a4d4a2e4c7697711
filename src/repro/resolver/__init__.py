"""Public-resolver populations: shared POP caches between client and CDN.

The paper's probes resolve locally, so every vantage point sees its own
TTL-cached view of the mapping chain.  Real client populations are
split: many sit behind large public resolvers (8.8.8.8, 1.1.1.1) whose
frontend POPs serve *shared* caches — which changes what the Meta-CDN's
location-based DNS can see (the POP's geography, or an ECS prefix) and
how fast a 15 s selection CNAME propagates.  This package models that
axis: POP placement, the per-POP shared ECS-scope-aware caches, and the
probe-side stubs that route resolutions through them.
"""

from .plane import POPULATIONS, PopStubResolver, ResolverPlane, check_population, is_public_client
from .pops import DEFAULT_POPS, POP_CACHE_CAPACITY, ResolverPop, nearest_pop

__all__ = [
    "DEFAULT_POPS",
    "POPULATIONS",
    "POP_CACHE_CAPACITY",
    "PopStubResolver",
    "ResolverPlane",
    "ResolverPop",
    "check_population",
    "is_public_client",
    "nearest_pop",
]
