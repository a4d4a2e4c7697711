"""Shared read-only serve state: one snapshot file, N worker processes.

A fleet of ``SO_REUSEPORT`` workers must agree on *everything* that
shapes an answer — the estate's zones, the vantage directory, the
steering mode, the catchment table — or the same query would resolve
differently depending on which worker the kernel picked.  The
:class:`FleetSpec` snapshot is that agreement, written once by the
fleet parent and loaded by every worker:

* the file is one :class:`~repro.container.Container` frame (magic
  ``RSNAP2``, the framing ``RCKPT``/``RSEG`` share) whose payload is the
  pickled spec; magic, version, length and checksum are verified before
  it is unpickled, and each worker then holds its own decoded copy;
* estate construction is deterministic from :class:`~repro.serve.
  cluster.ClusterConfig`, so workers rebuild the zones locally and then
  *verify* their build against the snapshot's :func:`estate_signature`
  — a worker whose estate drifted (version skew, non-deterministic
  build) refuses to serve rather than answer differently;
* under anycast steering the parent also pins the catchment map's
  signature at time zero, so every worker proves it routes the same
  client to the same site before taking traffic.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Optional

from ..container import Container
from ..faults import FailoverConfig, FaultSchedule
from .clients import ClientDirectory, Vantage
from .cluster import ClusterConfig

__all__ = [
    "FleetSpec",
    "ServeSnapshot",
    "estate_signature",
    "write_snapshot",
    "load_snapshot",
]

_CONTAINER = Container(b"RSNAP2\n", 2, RuntimeError, "snapshot")
_DIGEST_SIZE = 16


def estate_signature(estate) -> str:
    """A stable digest of the estate's zone structure.

    Hashes every operator's zones — origins and the sorted owner names
    bound in each — which pins the answer space: two estates with equal
    signatures were built from the same config by the same code, so
    their (deterministic) policies answer identically.
    """
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for server in sorted(estate.servers, key=lambda s: s.operator):
        digest.update(server.operator.encode())
        for zone in sorted(server.zones, key=lambda z: z.origin):
            digest.update(b"|" + zone.origin.encode())
            for name in sorted(zone.names()):
                digest.update(b";" + name.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class FleetSpec:
    """Everything a worker needs to serve exactly like its siblings."""

    cluster: ClusterConfig
    vantages: tuple[Vantage, ...]
    weights: dict[str, float]
    steering: str = "dns"
    hybrid_dns_share: float = 0.5
    faults: Optional[FaultSchedule] = None
    failover: Optional[FailoverConfig] = None
    # Pinned cluster clock for equivalence runs (None = live clock).
    pin_clock: Optional[float] = None
    estate_sig: str = ""
    catchment_sig: str = ""
    extra: dict = field(default_factory=dict)

    def directory(self) -> ClientDirectory:
        """The shared vantage directory, rebuilt from the spec."""
        return ClientDirectory(self.vantages, dict(self.weights))


class ServeSnapshot:
    """A loaded snapshot: the verified spec and where it came from."""

    def __init__(self, path: str, spec: FleetSpec) -> None:
        self.path = path
        self.spec = spec

    def close(self) -> None:
        """Nothing to release: the spec is fully decoded at load time."""

    def __enter__(self) -> "ServeSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def verify_estate(self, estate) -> None:
        """Refuse to serve from an estate that drifted from the spec."""
        local = estate_signature(estate)
        if self.spec.estate_sig and local != self.spec.estate_sig:
            raise RuntimeError(
                f"estate signature mismatch: snapshot {self.spec.estate_sig} "
                f"!= locally built {local} — refusing to serve divergently"
            )


def write_snapshot(path: str, spec: FleetSpec) -> str:
    """Write ``spec`` atomically; returns ``path``."""
    _CONTAINER.write(
        path, {}, [pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)]
    )
    return path


def load_snapshot(path: str) -> ServeSnapshot:
    """Read ``path``, verify the frame, then unpickle the spec."""
    _header, payload = _CONTAINER.read(path)
    try:
        spec = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of error types
        raise RuntimeError(f"snapshot {path}: cannot decode payload: {exc}") from exc
    if not isinstance(spec, FleetSpec):
        raise RuntimeError(f"snapshot {path} does not hold a FleetSpec")
    return ServeSnapshot(path, spec)
