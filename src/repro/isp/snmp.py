"""SNMP byte counters per peering link.

The paper collected ~350 million SNMP measurements and used them to
(a) scale Netflow volumes ("we scale the Netflow traffic on the
peering links by the byte counters from SNMP to minimize Netflow
sampling errors", Section 5.3) and (b) classify handover ASs and find
saturated links (Section 5.4).

:class:`SnmpCounters` bins bytes per link; :meth:`scale_factor` yields
the per-link, per-bin correction the offload analysis applies to
sampled flow volumes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterator, Optional

from ..obs import get_registry
from .netflow import NetflowCollector
from .topology import EyeballIsp

__all__ = ["SnmpCounters"]


class SnmpCounters:
    """Per-link byte counters in fixed time bins."""

    def __init__(self, bin_seconds: float = 300.0) -> None:
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        self._bytes: dict[str, dict[float, int]] = defaultdict(dict)
        self._m_bytes = get_registry().counter(
            "snmp_bytes_total", "Bytes counted per peering link", ("link",)
        )

    def bin_start(self, timestamp: float) -> float:
        """The start of the bin containing ``timestamp``."""
        return math.floor(timestamp / self.bin_seconds) * self.bin_seconds

    def add_bytes(self, link_id: str, timestamp: float, count: int) -> None:
        """Count ``count`` bytes on ``link_id`` at ``timestamp``."""
        if count < 0:
            raise ValueError("bytes cannot be negative")
        bin_key = self.bin_start(timestamp)
        bins = self._bytes[link_id]
        bins[bin_key] = bins.get(bin_key, 0) + count
        self._m_bytes.labels(link_id).inc(count)

    def snapshot_bins(self) -> dict[str, dict[float, int]]:
        """A deep copy of the per-link bins (what a checkpoint keeps)."""
        return {link: dict(bins) for link, bins in self._bytes.items()}

    def drain(self) -> dict[str, dict[float, int]]:
        """Hand over the per-link bins counted since the last drain, and forget them.

        What a shard worker ships home after each chunk.  A bin that
        straddles two drains comes out as two parts, which
        :meth:`absorb` adds back together.
        """
        drained = dict(self._bytes)
        self._bytes = defaultdict(dict)
        return drained

    def absorb(self, delta: dict[str, dict[float, int]]) -> None:
        """Merge per-link byte deltas counted by another replica.

        Worker-side counters already emitted the ``snmp_bytes_total``
        metrics for these bytes, so absorption updates bins only.
        """
        for link, bins in delta.items():
            target = self._bytes[link]
            for bin_key, count in bins.items():
                target[bin_key] = target.get(bin_key, 0) + count

    def bytes_in_bin(self, link_id: str, timestamp: float) -> int:
        """Bytes counted on ``link_id`` in the bin containing ``timestamp``."""
        return self._bytes.get(link_id, {}).get(self.bin_start(timestamp), 0)

    def series(self, link_id: str) -> list[tuple[float, int]]:
        """(bin start, bytes) pairs for a link, time-ordered."""
        return sorted(self._bytes.get(link_id, {}).items())

    def links(self) -> Iterator[str]:
        """Every link that has counted bytes."""
        return iter(self._bytes)

    def utilization(
        self, isp: EyeballIsp, link_id: str, timestamp: float
    ) -> float:
        """The link's fill level in the bin (1.0 = saturated)."""
        capacity = isp.link(link_id).capacity_bytes(self.bin_seconds)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.bytes_in_bin(link_id, timestamp) / capacity)

    def saturated_links(
        self, isp: EyeballIsp, timestamp: float, threshold: float = 0.98
    ) -> list[str]:
        """Links at or above ``threshold`` utilisation in the bin."""
        return sorted(
            link_id
            for link_id in self._bytes
            if self.utilization(isp, link_id, timestamp) >= threshold
        )

    def scale_factor(
        self,
        collector: NetflowCollector,
        link_id: str,
        timestamp: float,
    ) -> Optional[float]:
        """SNMP/Netflow correction factor for a link and bin.

        Sampled flow bytes multiplied by this factor reproduce the SNMP
        ground truth — the Section 5.3 sampling-error correction.
        Returns ``None`` when no flow bytes landed in the bin.
        """
        bin_key = self.bin_start(timestamp)
        flow_bytes = collector.bytes_between(
            link_id, bin_key, bin_key + self.bin_seconds
        )
        if flow_bytes == 0:
            return None
        return self.bytes_in_bin(link_id, timestamp) / flow_bytes
