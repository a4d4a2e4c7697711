"""``Alarm`` and ``deadline``: one timer per wait, one per connection."""

import asyncio

import pytest

from repro.serve.deadline import Alarm, deadline


def test_a_block_inside_its_deadline_is_untouched():
    async def scenario():
        with deadline(5.0):
            await asyncio.sleep(0.01)
            return "done"

    assert asyncio.run(scenario()) == "done"


def test_the_deadline_covers_every_await_of_the_block():
    async def scenario():
        loop = asyncio.get_running_loop()
        started = loop.time()
        naps = 0
        with pytest.raises(asyncio.TimeoutError):
            with deadline(0.2):
                while True:  # each nap alone is far inside the deadline
                    await asyncio.sleep(0.03)
                    naps += 1
        # The task is usable afterwards: the cancellation was consumed.
        await asyncio.sleep(0)
        return naps, loop.time() - started

    naps, elapsed = asyncio.run(scenario())
    assert 2 <= naps <= 7 and 0.15 <= elapsed < 1.0


def test_an_outside_cancellation_stays_a_cancellation():
    async def scenario():
        async def guarded():
            with deadline(5.0):
                await asyncio.sleep(5.0)

        task = asyncio.ensure_future(guarded())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())


def test_no_timer_outlives_the_block():
    async def scenario():
        with deadline(60.0) as guard:
            await asyncio.sleep(0)
        return guard._timer.cancelled()

    assert asyncio.run(scenario())


class TestAlarm:
    """``Alarm``: armed once per wait, one timer for them all."""

    @staticmethod
    def _alarm():
        """An alarm and the loop times at which it went off."""
        loop = asyncio.get_running_loop()
        fired = []
        return Alarm(lambda: fired.append(loop.time())), fired

    def test_many_waits_share_one_timer(self, deadline_timers):
        async def scenario():
            alarm, fired = self._alarm()
            timers = set()
            for _ in range(50):
                alarm.arm(5.0)
                await asyncio.sleep(0)
                alarm.disarm()
                timers.add(id(alarm._timer))
                assert len(deadline_timers()) == 1
            alarm.close()
            return len(timers), len(deadline_timers()), fired

        assert asyncio.run(scenario()) == (1, 0, [])

    def test_a_timer_that_fires_early_rearms_for_the_wait_in_progress(
        self, deadline_timers
    ):
        async def scenario():
            loop = asyncio.get_running_loop()
            alarm, fired = self._alarm()
            alarm.arm(0.2)  # arms the timer for t0 + 0.2
            await asyncio.sleep(0.12)
            alarm.disarm()
            started = loop.time()
            alarm.arm(0.2)  # due at t0 + 0.32: the timer fires before
            while not fired:
                await asyncio.sleep(0.01)
            return fired[0] - started, len(deadline_timers())

        elapsed, left = asyncio.run(scenario())
        # Neither cut short at the first wait's due time (0.08 s in)
        # nor left to run on: this wait's own 0.2 s.
        assert 0.18 <= elapsed < 1.0 and left == 0

    def test_a_timer_that_fires_while_disarmed_does_nothing(self, deadline_timers):
        async def scenario():
            alarm, fired = self._alarm()
            alarm.arm(0.05)
            alarm.disarm()
            await asyncio.sleep(0.15)  # fires here, nothing to guard
            assert deadline_timers() == [] and fired == []
            alarm.arm(0.05)  # armed anew
            assert len(deadline_timers()) == 1
            await asyncio.sleep(0.15)
            assert len(fired) == 1  # once, and not again
            alarm.arm(5.0)  # usable after going off, too
            assert len(deadline_timers()) == 1
            alarm.close()
            return len(fired), len(deadline_timers())

        assert asyncio.run(scenario()) == (1, 0)

    def test_a_shorter_wait_than_the_pending_timer_is_not_late(self):
        """A connection that waited 30 s for a head and now lingers 1 s."""

        async def scenario():
            loop = asyncio.get_running_loop()
            alarm, fired = self._alarm()
            alarm.arm(30.0)
            started = loop.time()
            alarm.arm(0.1)
            while not fired:
                await asyncio.sleep(0.01)
            return fired[0] - started

        assert 0.08 <= asyncio.run(scenario()) < 1.0
