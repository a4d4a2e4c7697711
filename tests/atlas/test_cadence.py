"""``Cadence`` against a brute-force grid.

The oracle writes the grid out: the first fire anchors it, slots sit one
interval apart from there, and a fire at ``now`` consumes every slot at
or before ``now`` — the first is the one being fired (late if ``now`` is
past it), the rest were missed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.atlas.cadence import Cadence  # noqa: E402


class GridOracle:
    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.anchor = None  # time of the first fire
        self.fired = 0      # slots consumed so far (slot k = anchor + k * interval)

    def _reached(self, now: int) -> list:
        """Every unconsumed slot at or before ``now``, written out."""
        last = (now - self.anchor) // self.interval
        return [
            self.anchor + k * self.interval
            for k in range(self.fired + 1, last + 1)
        ]

    def next_slot(self) -> int:
        return self.anchor + (self.fired + 1) * self.interval

    def due(self, now: int) -> bool:
        return self.anchor is None or bool(self._reached(now))

    def fire(self, now: int):
        if self.anchor is None:
            self.anchor = now
            return False, 0
        reached = self._reached(now)
        self.fired += len(reached)
        return bool(reached) and now > reached[0], max(0, len(reached) - 1)


@settings(max_examples=200, deadline=None)
@given(
    interval=st.integers(min_value=1, max_value=50),
    start=st.integers(min_value=0, max_value=1000),
    steps=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=40),
)
def test_cadence_matches_the_written_out_grid(interval, start, steps):
    # Whole-number times: the grid arithmetic is then exact in floats,
    # so the oracle's multiplication and the cadence's repeated addition
    # name the same slots.
    cadence, oracle = Cadence(float(interval)), GridOracle(interval)
    now = start
    for step in steps:
        now += step
        assert cadence.due(float(now)) == oracle.due(now)
        if oracle.due(now):
            assert cadence.fire(float(now)) == oracle.fire(now)
            assert cadence.next_due == float(oracle.next_slot())
            assert not cadence.due(float(now))


def test_the_first_fire_anchors_the_grid():
    cadence = Cadence(300.0)
    assert cadence.next_due is None and cadence.due(-1e9)
    assert cadence.fire(1234.5) == (False, 0)
    assert cadence.next_due == 1534.5
    assert not cadence.due(1534.4) and cadence.due(1534.5)


def test_stepping_past_k_slots_reports_k_minus_one_missed():
    for k in range(1, 6):
        cadence = Cadence(10.0)
        cadence.fire(0.0)  # slots at 10, 20, 30, ...
        late, missed = cadence.fire(10.0 * k + 5.0)
        assert (late, missed) == (True, k - 1)
        assert cadence.next_due == 10.0 * (k + 1)
    on_time = Cadence(10.0)
    on_time.fire(0.0)
    assert on_time.fire(10.0) == (False, 0)


def test_a_fire_ahead_of_the_grid_moves_nothing():
    cadence = Cadence(10.0)
    cadence.fire(0.0)
    assert cadence.fire(3.0) == (False, 0)
    assert cadence.next_due == 10.0


def test_interval_must_be_positive():
    for bad in (0.0, -5.0):
        with pytest.raises(ValueError):
            Cadence(bad)


def test_a_restored_grid_continues_where_the_original_would():
    """What a checkpoint does: read ``next_due``, set it on a fresh grid."""
    original = Cadence(300.0)
    original.fire(100.0)
    original.fire(750.0)
    restored = Cadence(300.0)
    restored.next_due = original.next_due
    for now in (900.0, 1000.0, 1300.0, 2650.0, 2700.0):
        assert restored.due(now) == original.due(now)
        if original.due(now):
            assert restored.fire(now) == original.fire(now)
        assert restored.next_due == original.next_due
