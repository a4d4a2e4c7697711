"""One timer per awaited stretch: ``with deadline(seconds): await ...``.

The serving layer supports Python 3.9, which has no ``asyncio.timeout``,
and ``asyncio.wait_for`` wraps every awaitable it guards in a task of
its own — eight per HTTP request when each header line is guarded
separately.  :class:`deadline` arms one ``call_later`` timer for a whole
block of awaits in the *current* task, cancels that task's pending
await when the timer fires, and turns the cancellation into
:class:`asyncio.TimeoutError` on the way out.
"""

from __future__ import annotations

import asyncio

__all__ = ["deadline"]


class deadline:
    """Raise ``asyncio.TimeoutError`` if the block outlives ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self._seconds = seconds
        self._expired = False

    def __enter__(self) -> "deadline":
        self._task = asyncio.current_task()
        self._timer = asyncio.get_running_loop().call_later(
            self._seconds, self._expire
        )
        return self

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._timer.cancel()
        if self._expired and exc_type is asyncio.CancelledError:
            # The cancellation was ours: undo its count where tasks keep
            # one (3.11+), and report what actually happened.
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is not None:
                uncancel()
            raise asyncio.TimeoutError from exc
