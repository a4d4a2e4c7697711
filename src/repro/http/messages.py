"""Minimal HTTP request/response model.

Section 3.1 observes that iOS devices fetch the update manifest and the
update image over plain HTTP; Section 3.3 infers the internal structure
of Apple's edge sites from the ``Via`` and ``X-Cache`` headers on those
responses.  This module models just enough HTTP for both: messages with
case-insensitive headers and a body size (bodies are never materialised
— a 2-3 GB iOS image is represented by its byte count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

__all__ = ["Headers", "HttpRequest", "HttpResponse"]


class Headers:
    """A case-insensitive multi-header map preserving insertion order.

    Repeated fields (``Via`` accumulates one entry per proxy) are joined
    with ``", "`` on read, mirroring RFC 7230 list semantics.

    Names are stored as given.  The first lookup builds an index from
    lowered name to that name's entries; from then on a lookup lowers
    the queried name and nothing else, and ``add`` / ``set`` keep the
    index in step.  ``copy()`` does not carry it: the copies the caches
    hold are never looked up, only copied again.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, initial: Optional[Mapping[str, str]] = None) -> None:
        self._entries: list[tuple[str, str]] = []
        self._index: Optional[dict[str, list[tuple[str, str]]]] = None
        for name, value in (initial or {}).items():
            self.add(name, value)

    @classmethod
    def of(cls, entries: list[tuple[str, str]]) -> "Headers":
        """Headers over ``entries``, ``(name, value)`` pairs in order; the
        list is kept, not copied."""
        headers = cls()
        headers._entries = entries
        return headers

    def _by_name(self) -> dict[str, list[tuple[str, str]]]:
        """Lowered name -> its entries, oldest first (the one lookup path)."""
        index = self._index
        if index is None:
            index = self._index = {}
            for entry in self._entries:
                index.setdefault(entry[0].lower(), []).append(entry)
        return index

    def add(self, name: str, value: str) -> None:
        """Append a field without replacing existing ones."""
        entry = (name, value)
        self._entries.append(entry)
        if self._index is not None:
            self._index.setdefault(name.lower(), []).append(entry)

    def set(self, name: str, value: str) -> None:
        """Replace all fields called ``name`` with a single value."""
        entry = (name, value)
        named = self._by_name().setdefault(name.lower(), [])
        # Entries equal to one of these are called ``name`` too, so each
        # ``remove`` takes one of exactly the entries that have to go.
        for old in named:
            self._entries.remove(old)
        named[:] = [entry]
        self._entries.append(entry)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The combined value of ``name`` (comma-joined), or ``default``."""
        named = self._by_name().get(name.lower())
        if named is None:
            return default
        if len(named) == 1:
            return named[0][1]
        return ", ".join([value for _name, value in named])

    def get_all(self, name: str) -> list[str]:
        """Every raw field value for ``name``, in insertion order."""
        return [value for _name, value in self._by_name().get(name.lower(), ())]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._by_name()

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "Headers":
        """A shallow copy preserving order and duplicates."""
        return Headers.of(list(self._entries))


@dataclass
class HttpRequest:
    """An HTTP request for one resource."""

    method: str
    host: str
    path: str
    headers: Headers = field(default_factory=Headers)

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        self.host = self.host.lower()
        if not self.path.startswith("/"):
            raise ValueError(f"path must be absolute: {self.path!r}")

    @property
    def url(self) -> str:
        """The full URL (the update chain is plain http, Section 3.1)."""
        return f"http://{self.host}{self.path}"

    def __str__(self) -> str:
        return f"{self.method} {self.url}"


@dataclass
class HttpResponse:
    """An HTTP response; the body is represented only by its size."""

    status: int
    headers: Headers = field(default_factory=Headers)
    body_size: int = 0

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"implausible status code: {self.status}")
        if self.body_size < 0:
            raise ValueError(f"negative body size: {self.body_size}")

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def __str__(self) -> str:
        return f"HTTP {self.status} ({self.body_size} bytes)"
