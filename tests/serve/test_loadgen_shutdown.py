"""Loadgen teardown hygiene: no leaked FDs, tasks, or ResourceWarnings.

Regression tests for the fleet-era shutdown fixes: a generator torn
down mid-ramp (the fleet SIGTERMs its loadgen processes) must cancel
and *await* its workers before closing the clients underneath them, a
closed DNS client must fail the queries still waiting on it, and a
completed run must leave no socket to the garbage collector.  Nor may an edge whose ``start`` failed half-way.
"""

import asyncio
import gc
import os
import socket
import warnings

import pytest

from repro.net.ipv4 import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import (
    AsyncDnsClient,
    ClientDirectory,
    ClusterConfig,
    LoadConfig,
    LoadGenerator,
    ServeCluster,
    build_serve_estate,
)


def _open_fds() -> set[int]:
    return {int(fd) for fd in os.listdir("/proc/self/fd")}


def _bind_both(port: int) -> int:
    """Bind a UDP and a TCP socket on ``port`` (0: one the kernel picks)
    and close them again; returns the port.  The TCP one reuses the
    address as asyncio's server does, so a connection in TIME_WAIT does
    not count as a socket left bound."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp, socket.socket() as tcp:
        udp.bind(("127.0.0.1", port))
        port = udp.getsockname()[1]
        tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        tcp.bind(("127.0.0.1", port))
    return port


def _foreign_tasks() -> list[asyncio.Task]:
    """Every live task except the one running the test scenario."""
    return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]


def _loadgen_tasks() -> list[asyncio.Task]:
    """Live tasks belonging to the load generator or its DNS client."""
    mine = []
    for task in _foreign_tasks():
        coro = task.get_coro()
        name = getattr(coro, "__qualname__", "")
        if name.startswith(("LoadGenerator.", "AsyncDnsClient.")):
            mine.append(task)
    return mine


@pytest.fixture
def cluster():
    estate = build_serve_estate(ClusterConfig(servers_per_metro=4))
    return ServeCluster(
        estate=estate,
        directory=ClientDirectory.from_adoption(),
        metrics=MetricsRegistry(),
    )


class TestCleanCompletion:
    def test_full_run_leaves_no_warnings_or_fds(self, cluster):
        gc.collect()
        before = _open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            async def scenario():
                async with cluster:
                    generator = LoadGenerator(
                        cluster.dns.endpoint,
                        cluster.http.endpoint,
                        config=LoadConfig(requests=60, concurrency=8),
                        metrics=MetricsRegistry(),
                    )
                    return await generator.run()

            report = asyncio.run(scenario())
            gc.collect()
        assert report.healthy(), report.error_samples
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]
        after = _open_fds()
        assert after <= before, f"leaked fds: {sorted(after - before)}"


class TestFailedStart:
    def test_a_port_already_taken_leaves_nothing_bound(self, cluster):
        """The HTTP port is taken, so ``start`` fails after the DNS
        server bound: the DNS port rebinds at once and no transport is
        left to the garbage collector."""
        dns_port = _bind_both(0)
        gc.collect()
        with socket.socket() as taken, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            busy = taken.getsockname()[1]

            async def scenario():
                with pytest.raises(OSError):
                    await cluster.start(dns_port=dns_port, http_port=busy)

            asyncio.run(scenario())
            _bind_both(dns_port)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_an_admin_port_is_refused_before_anything_binds(self, cluster):
        async def scenario():
            with pytest.raises(ValueError, match="no admin endpoint"):
                await cluster.start(admin_port=0)

        asyncio.run(scenario())
        with pytest.raises(RuntimeError, match="not started"):
            cluster.dns.endpoint


class TestMidRampCancellation:
    def test_cancel_reaps_every_worker_and_socket(self, cluster):
        gc.collect()
        before = _open_fds()
        events = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: events.append(ctx))
            async with cluster:
                generator = LoadGenerator(
                    cluster.dns.endpoint,
                    cluster.http.endpoint,
                    config=LoadConfig(requests=100_000, concurrency=16),
                    metrics=MetricsRegistry(),
                )
                run = asyncio.create_task(generator.run())
                await asyncio.sleep(0.4)
                assert not run.done(), "ramp finished before the cancel"
                run.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await run
                # Every closed-loop worker (and any DNS-client helper
                # task they spawned) must already be gone — run() awaits
                # them before re-raising.
                await asyncio.sleep(0)
                assert _loadgen_tasks() == []

        asyncio.run(scenario())
        gc.collect()
        after = _open_fds()
        assert after <= before, f"leaked fds: {sorted(after - before)}"
        destroyed = [
            ctx for ctx in events
            if "was destroyed but it is pending" in str(ctx.get("message", ""))
        ]
        assert not destroyed, destroyed

    def test_open_loop_cancel_reaps_arrival_tasks(self, cluster):
        from repro.workload.arrival import ArrivalSchedule

        async def scenario():
            async with cluster:
                generator = LoadGenerator(
                    cluster.dns.endpoint,
                    cluster.http.endpoint,
                    config=LoadConfig(
                        requests=64,
                        concurrency=16,
                        arrival=ArrivalSchedule.uniform(5000, 20.0),
                    ),
                    metrics=MetricsRegistry(),
                )
                run = asyncio.create_task(generator.run())
                await asyncio.sleep(0.4)
                run.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await run
                await asyncio.sleep(0)
                assert _loadgen_tasks() == []

        asyncio.run(scenario())


class TestClientClose:
    def test_close_fails_remaining_waiters(self):
        hole = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        hole.bind(("127.0.0.1", 0))
        port = hole.getsockname()[1]
        try:

            async def scenario():
                client = await AsyncDnsClient.open(
                    "127.0.0.1", port, timeout=30.0, retries=0
                )
                query = asyncio.create_task(
                    client.query(
                        "appldnld.apple.com", IPv4Address.parse("17.0.0.1")
                    )
                )
                await asyncio.sleep(0.1)
                protocol = client._protocol
                assert protocol.waiters
                client.close()
                with pytest.raises(
                    (asyncio.CancelledError, Exception)
                ):
                    await query
                assert protocol.waiters == {}

            asyncio.run(scenario())
        finally:
            hole.close()
