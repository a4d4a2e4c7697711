"""Shared serve-layer fixtures: one loopback-sized estate per session."""

import asyncio

import pytest

from repro.serve import ClusterConfig, build_serve_estate


@pytest.fixture(scope="session")
def serve_estate():
    """A small but complete Figure 2 estate for socket-level tests."""
    return build_serve_estate(ClusterConfig(servers_per_metro=4))


@pytest.fixture
def deadline_timers():
    """Callable: the running loop's pending, uncancelled timers whose
    callback is bound to an object of a ``repro.serve`` type — an
    :class:`~repro.serve.deadline.Alarm` (a ``deadline``, a connection's
    or a DNS client's timer) or any other timer the serving layer owns."""

    def owned_by_serve(handle):
        owner = getattr(handle._callback, "__self__", None)
        module = type(owner).__module__ if owner is not None else ""
        return module == "repro.serve" or module.startswith("repro.serve.")

    def pending():
        loop = asyncio.get_running_loop()
        return [
            handle for handle in loop._scheduled
            if not handle.cancelled() and owned_by_serve(handle)
        ]

    return pending
