"""Shared read-only fleet state: one snapshot file, N worker processes.

This file serves :mod:`repro.serve.fleet`, which remains only for the
perf ledger's ungated fleet row; ROADMAP item 4 (a) removes both.

A fleet of ``SO_REUSEPORT`` workers must agree on everything that
shapes an answer — the estate's zones and the vantage directory — or the
same query would resolve differently depending on which worker the
kernel picked.  The :class:`FleetSpec` snapshot is that agreement,
written once by the fleet parent and loaded by every worker:

* the file is one :class:`~repro.container.Container` frame (magic
  ``RSNAP2``, the framing ``RCKPT``/``RSEG`` share; schema version 3)
  whose payload is the pickled spec; magic, version, length and
  checksum are verified before it is unpickled, and each worker then
  holds its own decoded copy;
* estate construction is deterministic, so workers rebuild the zones
  locally and then *verify* their build against the snapshot's
  :func:`estate_signature` — a worker whose estate drifted (version
  skew, non-deterministic build) refuses to serve rather than answer
  differently.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

from ..container import Container
from .clients import ClientDirectory, Vantage

__all__ = [
    "FleetSpec",
    "ServeSnapshot",
    "estate_signature",
    "write_snapshot",
    "load_snapshot",
]

_CONTAINER = Container(b"RSNAP2\n", 3, RuntimeError, "snapshot")
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
    """Everything a worker needs to serve exactly like its siblings:
    the vantage directory, and the signature of the default estate the
    parent built once, for every worker to check itself against."""

    vantages: tuple[Vantage, ...]
    weights: dict[str, float]
    estate_sig: str

    def directory(self) -> ClientDirectory:
        """The shared vantage directory, rebuilt from the spec."""
        return ClientDirectory(self.vantages, dict(self.weights))


class ServeSnapshot:
    """A loaded snapshot: the verified spec."""

    def __init__(self, spec: FleetSpec) -> None:
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
        if local != self.spec.estate_sig:
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
    return ServeSnapshot(spec)
