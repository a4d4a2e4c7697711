"""The two-octet TCP framing of RFC 1035 §4.2.2 (``frame`` / ``read_frame``)."""

import asyncio
import sys

from repro.dns.wire import frame, read_frame


def read_all(data: bytes) -> list:
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            message = await read_frame(reader)
            frames.append(message)
            if message is None:
                return frames

    return asyncio.run(scenario())


def test_frames_read_back_in_order_then_none_at_eof():
    messages = [b"", b"\x00", b"abc" * 1000, bytes(65535)]
    wire = b"".join(frame(message) for message in messages)
    assert read_all(wire) == messages + [None]


def test_a_stream_cut_anywhere_inside_a_frame_is_none():
    wire = frame(b"0123456789")
    for cut in range(len(wire)):
        assert read_all(wire[:cut]) == [None]
    assert read_all(frame(b"whole") + wire[:5]) == [b"whole", None]


def test_the_codec_does_not_pull_asyncio_into_the_replay():
    """``dns.wire`` is imported by the engine, which never needs a loop:
    importing asyncio there cost the replay 0.07 s of setup and 3 MB."""
    import subprocess

    code = "import sys, repro.dns.wire; print('asyncio' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    )
    assert out.stdout.strip() == "False"
