"""The one checksummed file container under ``RSEG``, ``RCKPT`` and ``RSNAP``.

Every file this program writes and later trusts has the same frame::

    <magic> <u32 LE header length> <JSON header> <16-byte BLAKE2b> <payload>

The JSON header carries the owner's ``version``, the payload ``length``
and whatever fields the owner adds; the digest covers the header bytes
*and* the payload, so no byte after the magic can change unnoticed.
:meth:`Container.parse` checks magic → header → version → length →
checksum, in that order, before the owner sees a single payload byte:
an owner's decoder (two of them are ``pickle.loads``) only ever runs on
bytes this program wrote.  :meth:`Container.write` is the one atomic
write: ``tmp`` + ``fsync`` + ``os.replace``, unlinking the ``tmp`` on
any failure.

Each owner instantiates one :class:`Container` with its magic, schema
version and error type; every failure — torn, truncated, corrupted,
foreign, older-layout or unwritable — surfaces as that error type.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from hashlib import blake2b
from typing import Sequence

__all__ = ["Container"]

_HEADER_LEN = struct.Struct("<I")
_DIGEST_SIZE = 16


class Container:
    """One file format: a magic, a schema version and the owner's error."""

    def __init__(self, magic: bytes, version: int, error: type, what: str) -> None:
        self.magic = magic
        self.version = version
        self.error = error
        self.what = what

    def frame(self, fields: dict, parts: Sequence[bytes]) -> list:
        """The framed file as a chunk list; ``parts`` are passed through.

        The payload is hashed part by part and never joined here, so
        framing a large payload holds no second copy of it.
        """
        header = json.dumps(
            {
                **fields,
                "version": self.version,
                "length": sum(len(part) for part in parts),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        digest = blake2b(header, digest_size=_DIGEST_SIZE)
        for part in parts:
            digest.update(part)
        return [
            self.magic, _HEADER_LEN.pack(len(header)), header, digest.digest(),
            *parts,
        ]

    def write(self, path, fields: dict, parts: Sequence[bytes]) -> None:
        """Frame ``parts`` and write the file to ``path`` atomically.

        A crash leaves either the old file or no file, never a torn
        one; a failure leaves no ``tmp`` sibling behind.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            try:
                with open(tmp, "wb") as handle:
                    handle.writelines(self.frame(fields, parts))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise self.error(f"cannot write {self.what} {path}: {exc}") from exc

    def parse(self, blob, source="payload") -> tuple:
        """Validate a framed ``blob``; returns ``(header, payload view)``."""
        what = self.what
        view = memoryview(blob)
        cursor = len(self.magic)
        if view[:cursor] != self.magic:
            raise self.error(
                f"{source} is not a {self.magic[:-1].decode()} {what} (bad magic)"
            )
        if cursor + _HEADER_LEN.size > len(view):
            raise self.error(f"{source}: truncated {what} header")
        (header_len,) = _HEADER_LEN.unpack_from(view, cursor)
        cursor += _HEADER_LEN.size
        body = cursor + header_len + _DIGEST_SIZE
        if body > len(view):
            raise self.error(f"{source}: truncated {what} header")
        raw_header = view[cursor : cursor + header_len]
        try:
            header = json.loads(bytes(raw_header))
        except ValueError as exc:
            raise self.error(f"{source}: corrupt {what} header: {exc}") from exc
        version = header.get("version") if isinstance(header, dict) else None
        if version != self.version:
            raise self.error(
                f"{source}: unsupported {what} version {version!r} "
                f"(this build reads version {self.version})"
            )
        payload = view[body:]
        length = header.get("length")
        if length != len(payload):
            if isinstance(length, int) and len(payload) > length:
                raise self.error(
                    f"{source}: {len(payload) - length} trailing bytes "
                    f"after the {what} payload"
                )
            raise self.error(
                f"{source}: truncated {what} payload "
                f"({len(payload)} of {length} bytes present)"
            )
        digest = blake2b(raw_header, digest_size=_DIGEST_SIZE)
        digest.update(payload)
        if digest.digest() != view[body - _DIGEST_SIZE : body]:
            raise self.error(
                f"{source}: {what} checksum mismatch (torn or corrupted)"
            )
        return header, payload

    def read(self, path) -> tuple:
        """Read and validate the file at ``path``; see :meth:`parse`."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise self.error(f"cannot read {self.what} {path}: {exc}") from exc
        return self.parse(blob, str(path))
