"""Multi-process serve fleet: N workers behind one ``SO_REUSEPORT`` port.

Every command serves from one process
(:class:`~repro.serve.cluster.ServeCluster`, through
:mod:`repro.serve.harness`); nothing a user runs boots this fleet.  The
file remains only because the perf ledger's ungated fleet row
(``benchmarks/ledger/edge.py``: ``serve.fleet.*`` and
``serve.snapshot.*``) still times a boot, a metrics merge and a snapshot
round-trip.  ROADMAP item 4 (a), ledger v2 without a fleet row, is the
step that removes it, together with :mod:`repro.serve.snapshot` and
``obs.merge_registry_snapshots``.

What the fleet does:

* the parent reserves the listen ports with ``SO_REUSEPORT``
  placeholder sockets, writes the shared :class:`~repro.serve.snapshot.
  FleetSpec` snapshot, and **forks** N worker processes;
* each worker closes the inherited placeholders (an unread inherited
  UDP socket would silently steal a share of the reuseport group's
  datagrams), rebuilds the default estate, verifies its
  :func:`~repro.serve.snapshot.estate_signature` against the snapshot,
  and binds its own ``SO_REUSEPORT`` sockets on the shared ports;
* workers ship full :meth:`~repro.obs.registry.MetricsRegistry.
  snapshot` dumps to the parent over pipes, and
  :meth:`ServeFleet.merged_registry` merges the latest dump per worker.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Optional

from ..obs import NULL_TRACER, MetricsRegistry, merge_registry_snapshots, use_registry, use_tracer
from .clients import ClientDirectory
from .cluster import ServeCluster, build_serve_estate
from .snapshot import FleetSpec, estate_signature, load_snapshot, write_snapshot

__all__ = [
    "FleetConfig",
    "ServeFleet",
    "fleet_supported",
]

# Every worker serves loopback on ephemeral ports.
_HOST = "127.0.0.1"
_READY_TIMEOUT = 60.0
_STOP_TIMEOUT = 15.0


def fleet_supported() -> bool:
    """Whether this platform can run a reuseport fork fleet."""
    return (
        hasattr(socket, "SO_REUSEPORT")
        and sys.platform != "win32"
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _reuseport_socket(kind: int, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, kind)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    try:
        sock.bind((_HOST, port))
    except OSError:
        sock.close()
        raise
    return sock


def _reserve_shared_port(udp: bool) -> tuple[int, list[socket.socket]]:
    """Reserve one ephemeral port for a reuseport group; returns
    (port, holders).

    With ``udp`` the port is reserved in *both* address spaces (the DNS
    server binds UDP and TCP on the same number).  The placeholder
    sockets keep the port allocated while workers boot; callers must
    close them before traffic starts — a bound-but-unread UDP socket is
    a live member of the reuseport group and eats its share of
    datagrams.
    """
    last_error: Optional[OSError] = None
    for _ in range(20):
        holders: list[socket.socket] = []
        try:
            if udp:
                udp_sock = _reuseport_socket(socket.SOCK_DGRAM, 0)
                holders.append(udp_sock)
                bound = udp_sock.getsockname()[1]
                holders.append(
                    _reuseport_socket(socket.SOCK_STREAM, bound)
                )
            else:
                tcp_sock = _reuseport_socket(socket.SOCK_STREAM, 0)
                holders.append(tcp_sock)
                bound = tcp_sock.getsockname()[1]
            return bound, holders
        except OSError as exc:
            for sock in holders:
                sock.close()
            last_error = exc
    raise RuntimeError(f"could not reserve a shared port: {last_error}")


@dataclass
class FleetConfig:
    """How many workers serve the default edge, and how the fleet runs
    them."""

    workers: int = 2
    snapshot_dir: Optional[str] = None
    metrics_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(worker_id: int, snapshot_path: str,
                 dns_port: int, http_port: int, conn, stop_event,
                 interval: float, placeholder_fds: tuple[int, ...]) -> None:
    """Entry point of one forked serve worker."""
    # A terminal Ctrl-C signals the whole foreground process group;
    # shutdown is the parent's call (via the stop event), so workers
    # must not die — traceback and all — on their own SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Inherited placeholder sockets would join the reuseport group as
    # dead members; drop them before binding our own.
    for fd in placeholder_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    try:
        asyncio.run(
            _worker_async(
                worker_id, snapshot_path, dns_port, http_port,
                conn, stop_event, interval,
            )
        )
    except Exception:
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        os._exit(1)
    finally:
        try:
            conn.close()
        except OSError:
            pass


async def _worker_async(worker_id: int, snapshot_path: str,
                        dns_port: int, http_port: int, conn, stop_event,
                        interval: float) -> None:
    registry = MetricsRegistry()
    with load_snapshot(snapshot_path) as snapshot:
        with use_registry(registry), use_tracer(NULL_TRACER):
            cluster = ServeCluster(
                directory=snapshot.spec.directory(), metrics=registry
            )
            snapshot.verify_estate(cluster.estate)
            registry.gauge(
                "serve_fleet_worker_up",
                "Fleet workers serving (1 per live worker)",
                ("worker",),
            ).labels(f"w{worker_id}").set(1.0)
            await cluster.start(
                host=_HOST, dns_port=dns_port, http_port=http_port,
                reuse_port=True,
            )
            try:
                conn.send(("ready", worker_id))
                while not stop_event.is_set():
                    await asyncio.sleep(interval)
                    conn.send(("metrics", worker_id, registry.snapshot()))
            finally:
                await cluster.stop()
                try:
                    conn.send(("bye", worker_id, registry.snapshot()))
                except (BrokenPipeError, OSError):
                    pass


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------


class ServeFleet:
    """Boots, monitors and tears down N reuseport serve workers."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        if not fleet_supported():
            raise RuntimeError(
                "this platform lacks SO_REUSEPORT or fork; "
                "run the single-loop ServeCluster instead"
            )
        self.config = config if config is not None else FleetConfig()
        self.spec: Optional[FleetSpec] = None
        self._processes: list = []
        self._conns: dict = {}
        self._snapshots: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        self._stop_event = None
        self._dns_port: Optional[int] = None
        self._tempdir: Optional[str] = None

    @property
    def dns_endpoint(self) -> tuple[str, int]:
        """The shared DNS port every worker answers on."""
        if self._dns_port is None:
            raise RuntimeError("fleet is not started")
        return _HOST, self._dns_port

    def start(self) -> "ServeFleet":
        """Write the snapshot, reserve ports, fork and await the fleet."""
        if self._processes:
            raise RuntimeError("fleet already started")
        if self.config.snapshot_dir is not None:
            os.makedirs(self.config.snapshot_dir, exist_ok=True)
            base = self.config.snapshot_dir
        else:
            self._tempdir = tempfile.mkdtemp(prefix="rsnap-")
            base = self._tempdir
        directory = ClientDirectory.from_adoption()
        self.spec = FleetSpec(
            vantages=directory.vantages,
            weights=directory.weights(),
            estate_sig=estate_signature(build_serve_estate()),
        )
        snapshot_path = write_snapshot(
            os.path.join(base, "fleet.rsnap"), self.spec
        )
        holders: list[socket.socket] = []
        ctx = multiprocessing.get_context("fork")
        self._stop_event = ctx.Event()
        try:
            dns_port, reserved = _reserve_shared_port(udp=True)
            holders += reserved
            http_port, reserved = _reserve_shared_port(udp=False)
            holders += reserved
            holder_fds = tuple(sock.fileno() for sock in holders)
            for worker_id in range(self.config.workers):
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id, snapshot_path, dns_port, http_port,
                        send_conn, self._stop_event,
                        self.config.metrics_interval, holder_fds,
                    ),
                    daemon=True,
                )
                process.start()
                send_conn.close()
                self._processes.append(process)
                self._conns[recv_conn] = worker_id
            self._await_ready()
        except Exception:
            for sock in holders:
                sock.close()
            self._teardown(force=True)
            raise
        # Every worker is bound: release the placeholders so the
        # workers alone make up the reuseport group.
        for sock in holders:
            sock.close()
        self._dns_port = dns_port
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        return self

    def _await_ready(self) -> None:
        pending = set(self._conns)
        deadline = time.monotonic() + _READY_TIMEOUT
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"{len(pending)} fleet worker(s) not ready after "
                    f"{_READY_TIMEOUT:.0f}s"
                )
            for conn in mp_connection.wait(list(pending), timeout=remaining):
                worker_id = self._conns[conn]
                try:
                    message = conn.recv()
                except EOFError:
                    raise RuntimeError(
                        f"fleet worker {worker_id} died during boot"
                    ) from None
                kind = message[0]
                if kind == "ready":
                    pending.discard(conn)
                elif kind == "error":
                    raise RuntimeError(
                        f"fleet worker {worker_id} failed to boot:\n"
                        f"{message[2]}"
                    )

    def _drain(self) -> None:
        """Reader thread: keep the latest registry snapshot per worker."""
        conns = dict(self._conns)
        while conns:
            ready = mp_connection.wait(list(conns), timeout=0.2)
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    del conns[conn]
                    continue
                if message[0] in ("metrics", "bye"):
                    with self._lock:
                        self._snapshots[conns[conn]] = message[2]

    def merged_registry(self) -> MetricsRegistry:
        """Fleet-wide metrics: the latest snapshot of every worker, merged."""
        with self._lock:
            snapshots = list(self._snapshots.values())
        return merge_registry_snapshots(snapshots)

    def _teardown(self, force: bool = False) -> None:
        if self._stop_event is not None:
            self._stop_event.set()
        for process in self._processes:
            process.join(0.0 if force else _STOP_TIMEOUT)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
            self._reader = None
        for conn in self._conns:
            # A final drain: the reader thread may have exited before
            # the "bye" snapshots landed.
            try:
                while conn.poll(0):
                    message = conn.recv()
                    if message[0] in ("metrics", "bye"):
                        self._snapshots[self._conns[conn]] = message[2]
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._conns = {}
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None
        self._dns_port = None

    def stop(self) -> None:
        """Signal, join and reap every worker; keeps final snapshots."""
        if not self._processes:
            return
        self._teardown()
