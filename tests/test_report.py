from conftest import fast_config, run_in_process

from wirespec.engine import Verdict
from wirespec.iuts.miniimap import run_mini_imap
from wirespec.iuts.myp import FAULT_FORMAT, IutBehavior, run_myp_server
from wirespec.report import render, render_machine


def test_machine_report_shape(myp_spec):
    rep = run_in_process(
        myp_spec, "Server", lambda ch: run_myp_server(ch, seed=3),
        fast_config(max_steps=20, seed=5),
    )
    assert rep.verdict is Verdict.PASS
    text = render_machine(rep, myp_spec)
    lines = text.splitlines()
    assert lines[0] == "verdict: Pass"
    assert "actor: Server" in lines
    assert "seed: 5" in lines
    assert "steps: 20" in lines
    assert "trace:" in lines and "transitions:" in lines and "summary:" in lines
    # trace entries are numbered and direction-tagged
    first = lines[lines.index("trace:") + 1]
    assert first.startswith("  1 ") and first[4] in "?!"
    # summary covers all four goal kinds
    tail = text[text.index("summary:"):]
    for kind in ("transitions", "fields", "enums", "optional-goals"):
        assert kind in tail


def test_text_report_marks_uncovered(myp_spec):
    rep = run_in_process(
        myp_spec, "Server", lambda ch: run_myp_server(ch, seed=3),
        fast_config(max_steps=0, seed=5),
    )
    text = render(rep, myp_spec, "text")
    assert "✗" in text  # nothing covered in a zero-step run
    assert "0/3" in text


def test_reports_have_no_wallclock_content(myp_spec):
    a = run_in_process(
        myp_spec, "Server", lambda ch: run_myp_server(ch, seed=3),
        fast_config(max_steps=15, seed=6),
    )
    b = run_in_process(
        myp_spec, "Server", lambda ch: run_myp_server(ch, seed=3),
        fast_config(max_steps=15, seed=6),
    )
    assert render_machine(a, myp_spec) == render_machine(b, myp_spec)


def test_machine_report_shows_offending_bytes(myp_spec):
    rep = run_in_process(
        myp_spec, "Server",
        lambda ch: run_myp_server(ch, IutBehavior("srv", "server", FAULT_FORMAT), seed=42),
        fast_config(max_steps=200, seed=1),
    )
    assert rep.verdict is Verdict.INVALID_FORMAT
    lines = render_machine(rep, myp_spec).splitlines()
    assert f"offending-bytes: {rep.offending.hex()}" in lines


def test_both_reports_list_enum_constants(imap_spec):
    rep = run_in_process(
        imap_spec, "IMAPServer", run_mini_imap, fast_config(max_steps=60, seed=0)
    )
    assert rep.verdict is Verdict.PASS
    enums = rep.coverage.enums
    assert any(enums.values()) and not all(enums.values())
    machine = render_machine(rep, imap_spec).splitlines()
    text = render(rep, imap_spec, "text").splitlines()
    assert "enums:" in machine and "enum constants:" in text
    for (enum, const), count in enums.items():
        assert f"  {enum}.{const} {count}" in machine
        assert f"  {' ' if count else '✗'} {enum}.{const}  ({count})" in text
