"""``deadline``: one timer over a block of awaits in the current task."""

import asyncio

import pytest

from repro.serve.deadline import deadline


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


class TestKeptDeadline:
    """``deadline.kept``: entered once per wait, one timer for them all."""

    def test_many_blocks_share_one_timer(self, deadline_timers):
        async def scenario():
            guard = deadline.kept(5.0)
            timers = set()
            for _ in range(50):
                with guard:
                    await asyncio.sleep(0)
                timers.add(id(guard._timer))
                assert len(deadline_timers()) == 1
            guard.close()
            return len(timers), len(deadline_timers())

        assert asyncio.run(scenario()) == (1, 0)

    def test_a_timer_that_fires_early_rearms_for_the_block_in_progress(
        self, deadline_timers
    ):
        async def scenario():
            loop = asyncio.get_running_loop()
            guard = deadline.kept(0.2)
            with guard:  # arms the timer for t0 + 0.2
                await asyncio.sleep(0.12)
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                with guard:  # due at t0 + 0.32: the timer fires before
                    await asyncio.sleep(5.0)
            elapsed = loop.time() - started
            guard.close()
            return elapsed, len(deadline_timers())

        elapsed, left = asyncio.run(scenario())
        # Neither cut short at the first block's due time (0.08 s in)
        # nor left to run on: this block's own 0.2 s.
        assert 0.18 <= elapsed < 1.0 and left == 0

    def test_a_timer_that_fires_between_blocks_does_nothing(self, deadline_timers):
        async def scenario():
            guard = deadline.kept(0.05)
            with guard:
                await asyncio.sleep(0)
            await asyncio.sleep(0.15)  # fires here, nothing to guard
            assert deadline_timers() == []
            with guard:  # armed anew
                await asyncio.sleep(0)
                assert len(deadline_timers()) == 1
            with pytest.raises(asyncio.TimeoutError):
                with guard:
                    await asyncio.sleep(5.0)
            with guard:  # usable after an expiry, too
                await asyncio.sleep(0)
            guard.close()
            return len(deadline_timers())

        assert asyncio.run(scenario()) == 0

    def test_each_block_cancels_the_task_that_entered_it(self):
        """A pooled connection is used by one task after another."""

        async def scenario():
            guard = deadline.kept(0.1)

            async def quick():
                with guard:
                    await asyncio.sleep(0)
                return "quick"

            async def slow():
                with guard:
                    await asyncio.sleep(5.0)

            first = await asyncio.ensure_future(quick())
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.ensure_future(slow())
            guard.close()
            return first

        assert asyncio.run(scenario()) == "quick"
