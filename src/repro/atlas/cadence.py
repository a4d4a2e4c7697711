"""The firing grid every scheduled campaign keeps.

A campaign fires when the engine's clock reaches its next grid slot.
The first fire anchors the grid (slots sit at ``first + k * interval``);
an engine that steps past one or more slots fires once, late, and the
grid moves on to the first slot still ahead.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Cadence"]


class Cadence:
    """A fixed-interval grid: ``due(now)`` asks, ``fire(now)`` advances."""

    __slots__ = ("interval", "next_due")

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        # ``None`` until the first fire; a checkpoint records it.
        self.next_due: Optional[float] = None

    def due(self, now: float) -> bool:
        """Whether the grid has a slot at or before ``now`` to fire."""
        return self.next_due is None or now >= self.next_due

    def fire(self, now: float) -> tuple[bool, int]:
        """Move the grid past ``now``; returns ``(late, missed slots)``.

        *Late* means ``now`` is past the slot being fired; a *missed*
        slot is one skipped entirely because the caller stepped over it.
        """
        if self.next_due is None:
            self.next_due = now + self.interval
            return False, 0
        late = now > self.next_due
        slots = 0
        while self.next_due <= now:
            self.next_due += self.interval
            slots += 1
        return late, max(0, slots - 1)
