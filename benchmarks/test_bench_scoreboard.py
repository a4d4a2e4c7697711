"""The reproduction scoreboard: every paper target checked in one pass.

This is the closing bench: it scores the session's figure set against
every target's accepted band and fails if any target leaves its band
or goes unmeasured — the single signal that the reproduction holds.
"""

from conftest import write_output

from repro.analysis.scoreboard import evaluate_scoreboard, render_scoreboard


def test_bench_scoreboard(bench_figures):
    checks = evaluate_scoreboard(bench_figures)
    text = render_scoreboard(checks)
    write_output("scoreboard.txt", text)
    print("\n" + text)

    failing = [check.name for check in checks if not check.passed]
    assert not failing, f"targets out of band: {failing}"
