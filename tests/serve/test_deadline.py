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
