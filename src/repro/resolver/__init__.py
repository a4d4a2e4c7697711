"""Public-resolver populations: shared POP caches between client and CDN.

The paper's probes resolve locally, so every vantage point sees its own
TTL-cached view of the mapping chain.  Real client populations are
split: many sit behind large public resolvers (8.8.8.8, 1.1.1.1) whose
frontend POPs serve *shared* caches — which changes what the Meta-CDN's
location-based DNS can see (the POP's geography, or an ECS prefix) and
how fast a 15 s selection CNAME propagates.  This package describes
that axis for the live edge's
:class:`~repro.serve.resolverfront.PublicResolverFront`: the POP table
and the rule that puts a client behind a POP.
"""

from .pops import (
    DEFAULT_POPS,
    POP_CACHE_CAPACITY,
    POPULATIONS,
    ResolverPop,
    check_population,
    is_public_client,
    nearest_pop,
)

__all__ = [
    "DEFAULT_POPS",
    "POPULATIONS",
    "POP_CACHE_CAPACITY",
    "ResolverPop",
    "check_population",
    "is_public_client",
    "nearest_pop",
]
