"""One timer per wait: :class:`Alarm`, and ``with deadline(seconds): await ...``.

The serving layer supports Python 3.9, which has no ``asyncio.timeout``,
and ``asyncio.wait_for`` wraps every awaitable it guards in a task of
its own.  Both timeouts here are one ``call_at`` timer.

An :class:`Alarm` belongs to something that waits again and again — a
connection waiting for its next request head, for its next frame or for
the answer to its request, a wire DNS client waiting for the answers to
its datagrams — and calls its callback when a wait outlives its time.
Arming stores the wait's due time and arms a timer only if none is
pending; a timer that fires before the due time re-arms itself for it,
one that fires with nothing armed does nothing.  So a busy
connection or client costs one timer per timeout, not a ``call_later``
and a ``cancel`` per request.

:class:`deadline` is an alarm over a block of awaits in the *current*
task: it cancels the task's pending await when it goes off and turns
the cancellation into :class:`asyncio.TimeoutError` on the way out.
"""

from __future__ import annotations

import asyncio
from typing import Callable

__all__ = ["Alarm", "deadline"]


class Alarm:
    """Call ``expire()`` once a wait armed with :meth:`arm` is overdue."""

    __slots__ = ("_expire", "_timer", "_due")

    def __init__(self, expire: Callable[[], None]) -> None:
        self._expire = expire
        self._timer = None
        self._due = None  # None while disarmed: nothing to guard

    def arm(self, seconds: float) -> None:
        """Start a wait that is overdue ``seconds`` from now."""
        loop = asyncio.get_running_loop()
        due = self._due = loop.time() + seconds
        timer = self._timer
        if timer is None or timer.cancelled() or due < timer.when():
            if timer is not None:
                timer.cancel()
            self._timer = loop.call_at(due, self._fire)

    def disarm(self) -> None:
        """End the wait in time; the pending timer is left to lapse."""
        self._due = None

    def close(self) -> None:
        """Disarm and drop the pending timer (the owner's end)."""
        self._due = None
        if self._timer is not None:
            self._timer.cancel()

    def _fire(self) -> None:
        timer = self._timer
        self._timer = None
        if self._due is None:
            return  # disarmed; the next wait arms anew
        if self._due > timer.when():
            # The wait this was armed for ended in time and a later one
            # is in progress: its due time is the one that counts.
            self._timer = asyncio.get_running_loop().call_at(self._due, self._fire)
            return
        self._due = None
        self._expire()


class deadline(Alarm):
    """Raise ``asyncio.TimeoutError`` if the block outlives ``seconds``."""

    __slots__ = ("_seconds", "_task")

    def __init__(self, seconds: float) -> None:
        super().__init__(None)
        self._seconds = seconds
        self._task = None

    def __enter__(self) -> "deadline":
        # The task's own ``cancel`` is what goes off: a method of this
        # guard would tie it into a reference cycle, one per block.
        self._task = asyncio.current_task()
        self._expire = self._task.cancel
        self.arm(self._seconds)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        expired = self._timer is None  # ``_fire`` drops it before expiring
        self.close()
        if expired and exc_type is asyncio.CancelledError:
            # The cancellation was ours: undo its count where tasks
            # keep one (3.11+), and report what actually happened.
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is not None:
                uncancel()
            raise asyncio.TimeoutError from exc
