"""CDN categorisation of observed cache addresses.

Figures 4 and 5 split unique cache IPs into six categories: Apple,
Akamai, "Akamai other AS", Limelight, "Limelight other AS", and other —
where "other AS" means the cache is operated by the CDN but its address
is originated by a different AS (hosted caches).
"""

from __future__ import annotations

from typing import Optional

from ..cdn.deployment import CdnDeployment
from ..net.ipv4 import IPv4Address

__all__ = ["CATEGORY_ORDER", "CdnCategorizer"]

CATEGORY_ORDER = (
    "Apple",
    "Akamai",
    "Akamai other AS",
    "Limelight",
    "Limelight other AS",
    "other",
)


class CdnCategorizer:
    """Maps a cache address to its Figure 4/5 category."""

    def __init__(self, deployments: dict[str, CdnDeployment]) -> None:
        self._by_address: dict[IPv4Address, str] = {}
        for operator, deployment in deployments.items():
            for placed in deployment.servers:
                if operator in ("Akamai", "Limelight") and (
                    placed.server.asn != deployment.asn
                ):
                    category = f"{operator} other AS"
                else:
                    category = operator
                self._by_address[placed.server.address] = category

    def category(self, address: IPv4Address) -> str:
        """The category label for ``address`` ("other" if unknown)."""
        return self._by_address.get(address, "other")

    def operator(self, address: IPv4Address) -> Optional[str]:
        """The bare operator name (merging the "other AS" split)."""
        category = self._by_address.get(address)
        if category is None:
            return None
        return category.replace(" other AS", "")

    def __len__(self) -> int:
        return len(self._by_address)
