"""One timer per awaited stretch: ``with deadline(seconds): await ...``.

The serving layer supports Python 3.9, which has no ``asyncio.timeout``,
and ``asyncio.wait_for`` wraps every awaitable it guards in a task of
its own — eight per HTTP request when each header line is guarded
separately.  :class:`deadline` arms one ``call_at`` timer for a whole
block of awaits in the *current* task, cancels that task's pending
await when the timer fires, and turns the cancellation into
:class:`asyncio.TimeoutError` on the way out.

A connection that waits once per request keeps one guard for its whole
life (:meth:`deadline.kept`) and enters it for each wait: entering
stores the wait's due time, and the timer already pending re-arms
itself for that time when it fires early — one timer per connection
and ``seconds``, not a ``call_later`` and a ``cancel`` per request.
"""

from __future__ import annotations

import asyncio

__all__ = ["deadline"]


class deadline:
    """Raise ``asyncio.TimeoutError`` if the block outlives ``seconds``."""

    __slots__ = ("_seconds", "_kept", "_task", "_timer", "_due", "_expired")

    def __init__(self, seconds: float) -> None:
        self._seconds = seconds
        self._kept = False
        self._task = None
        self._timer = None
        self._due = None  # None between blocks: nothing to guard
        self._expired = False

    @classmethod
    def kept(cls, seconds: float) -> "deadline":
        """A guard entered many times whose timer stays pending between
        blocks; its owner calls :meth:`close` when it is done waiting."""
        guard = cls(seconds)
        guard._kept = True
        return guard

    def __enter__(self) -> "deadline":
        loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._due = loop.time() + self._seconds
        if self._timer is None or self._timer.cancelled():
            self._timer = loop.call_at(self._due, self._fire)
        return self

    def _fire(self) -> None:
        timer, self._timer = self._timer, None
        if self._due is None:
            return  # between blocks; the next one arms anew
        if self._due > timer.when():
            # The block this was armed for ended in time and a later
            # one is waiting: its due time is the one that counts.
            self._timer = asyncio.get_running_loop().call_at(self._due, self._fire)
            return
        self._expired = True
        self._task.cancel()

    def close(self) -> None:
        """Drop the pending timer (the end of a kept guard's owner)."""
        if self._timer is not None:
            self._timer.cancel()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._due = None
        if not self._kept:
            self.close()
        if self._expired:
            self._expired = False
            if exc_type is asyncio.CancelledError:
                # The cancellation was ours: undo its count where tasks
                # keep one (3.11+), and report what actually happened.
                uncancel = getattr(self._task, "uncancel", None)
                if uncancel is not None:
                    uncancel()
                raise asyncio.TimeoutError from exc
