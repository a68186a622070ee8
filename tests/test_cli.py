import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from wirespec.cli import bundled_spec_path, main

MYP = "bundled:myp"
IMAP = "bundled:imap_subset"


def run_cli(*args):
    """Invoke the CLI in-process, capturing stdout/stderr and exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_check_myp_summary():
    code, out, _ = run_cli("check", MYP)
    assert code == 0
    assert "3 message types" in out
    assert "2 actors" in out
    assert "message types: Ask, Done, Data" in out


def test_check_imap_lists_command_types():
    code, out, _ = run_cli("check", IMAP)
    assert code == 0
    commands = [t for t in out.splitlines()[1].split(": ")[1].split(", ") if t.endswith("Cmd")]
    assert len(commands) >= 11


def test_check_reports_resolution_errors(tmp_path):
    bad = tmp_path / "bad.wspec"
    bad.write_text(
        "message module M record R with a is Binary(length=8*b) "
        "b is Integer as BigEndian(length=8) end end"
    )
    code, _, err = run_cli("check", str(bad))
    assert code != 0
    assert "later field 'b'" in err


def test_check_reports_a_pin_its_codec_cannot_code(tmp_path):
    bad = tmp_path / "pin.wspec"
    bad.write_text("message module M message X with w is Integer(value=300) as BigEndian(length=8) end end")
    code, out, err = run_cli("check", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: X.w: the pinned value cannot be coded: 300 does not fit 8-bit unsigned\n"


def test_graph_dumps_edges():
    code, out, _ = run_cli("graph", MYP, "--actor", "Server")
    assert code == 0
    assert "Serving -?Ask-> u1" in out
    assert "u1 -!Data-> Serving" in out


def test_graph_unknown_actor():
    code, _, err = run_cli("graph", MYP, "--actor", "Nope")
    assert code == 1
    assert err == "error: no actor named 'Nope'\n"


def test_test_unknown_actor_fails_before_connecting():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        code, out, err = run_cli("test", MYP, "Nope", "--connect", f"127.0.0.1:{port}", "--timeout-ms", "50")
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()  # no connection was made
    assert (code, out, err) == (1, "", "error: no actor named 'Nope'\n")
    code, out, err = run_cli("test", MYP, "Nope", "--listen", "0")
    assert (code, out, err) == (1, "", "error: no actor named 'Nope'\n")


@pytest.mark.parametrize("actors", [("Nope", "Server"), ("Client", "Nope")])
def test_selfplay_unknown_actor(actors):
    code, out, err = run_cli("selfplay", MYP, *actors)
    assert (code, out, err) == (1, "", "error: no actor named 'Nope'\n")


def test_run_test_unknown_actor_is_an_unknown_name():
    from wirespec.channel import in_process_pair
    from wirespec.cli import _load
    from wirespec.engine import EngineConfig, run_test
    from wirespec.errors import UnknownName

    ours, theirs = in_process_pair()
    with ours, theirs, pytest.raises(UnknownName, match="^no actor named 'Nope'$"):
        run_test(_load(MYP), "Nope", ours, EngineConfig(max_steps=1))


def test_encode_ask_defaults():
    code, out, _ = run_cli("encode", MYP, "Ask")
    assert code == 0
    assert out.strip() == "40"


def test_encode_explicit_value():
    code, out, _ = run_cli(
        "encode", MYP, "Done", "--value", "{ h = { flag = 3, reserved = b'000000' } }"
    )
    assert code == 0
    assert out.strip() == "c0"


def test_encode_rejects_bad_value():
    code, _, err = run_cli(
        "encode", MYP, "Done", "--value", "{ h = { flag = 1, reserved = b'000000' } }"
    )
    assert code == 1
    assert "must equal 3" in err


def test_encode_rejects_unknown_field():
    code, _, err = run_cli(
        "encode", MYP, "Done", "--value",
        "{ h = { flag = 3, reserved = b'000000' }, bogus = 1 }",
    )
    assert code == 1
    assert "no field 'bogus'" in err


def test_encode_malformed_value_literal():
    code, _, err = run_cli("encode", MYP, "Done", "--value", "{ h = ")
    assert code == 1
    assert err.startswith("error: 1:7:")


def test_non_ascii_digits_are_syntax_errors(tmp_path):
    spec = tmp_path / "digit.wspec"
    spec.write_text(
        "message module M message X with i is Integer(max=\u00b2) as BigEndian(length=8) end end",
        encoding="utf-8",
    )
    code, _, err = run_cli("check", str(spec))
    assert (code, err) == (1, "error: 1:50: unexpected character '\u00b2'\n")
    code, _, err = run_cli("encode", MYP, "Done", "--value", "\u00b2")
    assert (code, err) == (1, "error: 1:1: unexpected character '\u00b2'\n")


def test_decode_bad_hex():
    code, _, err = run_cli("decode", MYP, "zz")
    assert code == 1
    assert err.startswith("error:")


def test_codec_width_no_integer_has(tmp_path):
    spec = tmp_path / "width.wspec"
    spec.write_text(
        "message module N message W with "
        "n is Integer(min=0, max=1) as BigEndian(length=8) "
        "a is Integer as BigEndian(length=8*n - 8) end end"
    )
    code, _, err = run_cli("gen", str(spec), "W", "--seed", "1")
    assert (code, err) == (1, "error: W.a: no -8-bit integer exists\n")
    code, _, err = run_cli("encode", str(spec), "W", "--value", "{ n = 0, a = 0 }")
    assert (code, err) == (1, "error: no -8-bit integer exists\n")


@pytest.mark.parametrize(
    "field,err",
    [
        ("t is Text(max_count=n - 5) as TerminatedText(terminator='\\n')", "L.t: negative max_count -4"),
        (
            "xs is List(elem=Binary(length=8), max_length=n - 5) "
            "as CountPrefixList(count_codec=BigEndian(length=8))",
            "L.xs: negative max_length -4",
        ),
    ],
)
def test_gen_negative_cap(tmp_path, field, err):
    spec = tmp_path / "cap.wspec"
    spec.write_text(
        "message module N message L with "
        f"n is Integer(min=0, max=3) as BigEndian(length=8) {field} end end"
    )
    assert run_cli("gen", str(spec), "L", "--seed", "1") == (1, "", f"error: {err}\n")


def test_decode_classifies():
    code, out, _ = run_cli("decode", MYP, "c0")
    assert code == 0
    assert out.startswith("Done {")
    assert "flag = 3" in out


def test_decode_invalid():
    code, _, err = run_cli("decode", MYP, "ff", "--types", "Ask")
    assert code == 1
    assert "invalid format" in err


@pytest.mark.parametrize("types", ["Nope", "Ask,Nope"])
def test_decode_unknown_candidate(types):
    code, out, err = run_cli("decode", MYP, "40", "--types", types)
    assert (code, out, err) == (1, "", "error: no message type named 'Nope'\n")


def test_gen_deterministic_per_seed():
    _, first, _ = run_cli("gen", MYP, "Data", "--seed", "7")
    _, second, _ = run_cli("gen", MYP, "Data", "--seed", "7")
    _, third, _ = run_cli("gen", MYP, "Data", "--seed", "8")
    assert first == second
    assert first != third


def test_selfplay_pass():
    for actors in (("Client", "Server"), ("Server", "Client")):
        assert run_cli("selfplay", MYP, *actors) == (0, "fit: 9 configurations\n", "")


def test_selfplay_deterministic_reports(tmp_path):
    # the Server model edited to answer Ask with Done instead of Data
    broken = tmp_path / "broken.wspec"
    broken.write_text(bundled_spec_path("myp").read_text().replace(
        "on Ask  do send Data continue", "on Ask do send Done continue"
    ))
    args = ("selfplay", str(broken), "Client", "Server")
    witness = (
        "Client: no transition for ?Done from states {Waiting}\n"
        "1 Client !Ask\n"
        "2 Server ?Ask\n"
        "3 Server !Done\n"
    )
    assert run_cli(*args) == (2, witness, "")
    assert run_cli(*args) == (2, witness, "")
    # the same bytes under another string hash seed
    proc = subprocess.run(
        [sys.executable, "-m", "wirespec.cli", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": "1"},
    )
    assert (proc.returncode, proc.stdout) == (2, witness)


def test_selfplay_deadlock_exit_code(tmp_path):
    spec = tmp_path / "wait.wspec"
    spec.write_text(
        "message module M message Ping with k is Integer(value=1) as BigEndian(length=8) end end "
        "interactions module M "
        "actor A with init state S where on Ping do send Ping continue end end "
        "actor B with init state T where on Ping do send Ping continue end end end"
    )
    code, out, _ = run_cli("selfplay", str(spec), "A", "B")
    assert (code, out) == (3, "deadlock: A waits in {S} and B waits in {T}, no message in flight\n")


@contextmanager
def serving(*args):
    """Run ``wirespec serve ... --once`` on a free port on a thread for the
    block, which connects to it once; the thread has ended when the block has."""
    port = free_port()
    thread = threading.Thread(
        target=main, args=(["serve", *args, "--port", str(port), "--once"],), daemon=True
    )
    thread.start()
    try:
        yield port
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_client(*args, timeout=5.0):
    """run_cli, run again while the served IUT is not yet listening."""
    deadline = time.monotonic() + timeout
    while True:
        code, out, err = run_cli(*args)
        if code != 4 or "Connection refused" not in err or time.monotonic() > deadline:
            return code, out, err
        time.sleep(0.02)


def test_tcp_test_run_against_served_iut():
    with serving("myp-server", "--seed", "5") as port:
        code, out, _ = run_client(
            "test", MYP, "Server", "--connect", f"127.0.0.1:{port}",
            "--max-steps", "40", "--timeout-ms", "15", "--seed", "2", "--format", "machine",
        )
    assert code == 0
    assert "verdict: Pass" in out


def test_exit_code_field_fault():
    with serving("myp-server", "--seed", "5", "--fault", "format") as port:
        code, out, _ = run_client(
            "test", MYP, "Server", "--connect", f"127.0.0.1:{port}",
            "--max-steps", "40", "--timeout-ms", "15", "--seed", "2",
        )
    assert code == 1
    assert "InvalidFormat" in out


def test_channel_error_exit_code():
    code, _, err = run_cli(
        "test", MYP, "Server", "--connect", "127.0.0.1:1",
        "--max-steps", "5", "--timeout-ms", "200", "--seed", "0",
    )
    assert code == 4
    assert "channel error" in err


def test_connect_needs_a_numeric_port():
    code, _, err = run_cli("test", MYP, "Server", "--connect", "127.0.0.1:abc")
    assert code == 1
    assert err == "error: --connect needs host:port, got '127.0.0.1:abc'\n"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wirespec.cli", "check", MYP],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "3 message types" in proc.stdout


@pytest.mark.parametrize(
    "args, option",
    [
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--timeout-ms", "-5"], "--timeout-ms"),
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--timeout-ms", "0"], "--timeout-ms"),
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--max-steps", "-2"], "--max-steps"),
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--timeout-ms", "0"], "--timeout-ms"),
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--max-steps", "-1"], "--max-steps"),
        (["test", MYP, "Server", "--connect", "127.0.0.1:1", "--timeout-ms", "soon"], "--timeout-ms"),
    ],
)
def test_engine_limits_out_of_range_are_usage_errors(args, option, capsys):
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err
    assert "Traceback" not in err


def test_zero_max_steps_is_allowed():
    with serving("myp-server") as port:
        code, out, _ = run_client(
            "test", MYP, "Server", "--connect", f"127.0.0.1:{port}", "--max-steps", "0"
        )
    assert code == 0
    assert "0 steps" in out


@pytest.mark.parametrize(
    "args, message",
    [
        (["mini-imap", "--fault", "trace"], "--fault applies only to myp-server"),
        (["myp-client", "--fault", "format"], "--fault applies only to myp-server"),
        (["myp-server", "--bug", "select-after-delete-inbox"], "--bug applies only to mini-imap"),
        (["myp-client", "--bug", "select-after-delete-inbox"], "--bug applies only to mini-imap"),
        (["mini-imap", "--seed", "5"], "--seed applies only to myp-server and myp-client"),
    ],
)
def test_serve_rejects_an_option_of_another_iut(args, message, capsys, monkeypatch):
    # were the option accepted, serve would return here instead of listening
    monkeypatch.setattr("wirespec.cli.cmd_serve", lambda args: "served")
    with pytest.raises(SystemExit) as stop:
        main(["serve", *args])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(f"wirespec: error: {message}\n")
