"""Shared serve-layer fixtures: one loopback-sized estate per session."""

import asyncio

import pytest

from repro.serve import ClusterConfig, build_serve_estate
from repro.serve.deadline import Alarm


@pytest.fixture(scope="session")
def serve_estate():
    """A small but complete Figure 2 estate for socket-level tests."""
    return build_serve_estate(ClusterConfig(servers_per_metro=4))


@pytest.fixture
def deadline_timers():
    """Callable: the running loop's pending, uncancelled timers that
    belong to an :class:`~repro.serve.deadline.Alarm` — a ``deadline``
    or a connection's request timer."""

    def pending():
        loop = asyncio.get_running_loop()
        return [
            handle for handle in loop._scheduled
            if not handle.cancelled()
            and isinstance(getattr(handle._callback, "__self__", None), Alarm)
        ]

    return pending
