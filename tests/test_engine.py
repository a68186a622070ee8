from collections import Counter
from random import Random

import pytest

from conftest import fast_config, run_in_process, states_after

from wirespec.cli import bundled_spec_path
from wirespec.coverage import Coverage
from wirespec.engine import Verdict, default_strategy, run_test
from wirespec.generate import GenConfig, Generator
from wirespec.iuts import StreamReader
from wirespec.iuts.myp import (
    FAULT_FORMAT,
    FAULT_TRACE,
    IutBehavior,
    run_myp_client,
    run_myp_server,
)
from wirespec.lts import QUEUE_BOUND, Fit, check_fit
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec


def myp_server(fault=None, seed=42):
    def iut(ch):
        run_myp_server(ch, IutBehavior("srv", "server", fault), seed=seed)

    return iut


def test_correct_server_passes(myp_spec):
    rep = run_in_process(myp_spec, "Server", myp_server(), fast_config(max_steps=60, seed=1))
    assert rep.verdict is Verdict.PASS
    assert rep.steps == 60
    directions = {d for d, _ in rep.trace}
    assert directions == {"?", "!"}
    # every Ask is answered by a Data before anything else happens
    for (d1, m1), (d2, m2) in zip(rep.trace, rep.trace[1:]):
        if (d1, m1) == ("?", "Ask"):
            assert (d2, m2) == ("!", "Data")


def test_format_fault_detected(myp_spec):
    rep = run_in_process(
        myp_spec, "Server", myp_server(fault=FAULT_FORMAT), fast_config(max_steps=200, seed=1)
    )
    assert rep.verdict is Verdict.INVALID_FORMAT
    assert rep.offending is not None
    assert "b'000001'" in rep.detail


def test_trace_fault_detected(myp_spec):
    rep = run_in_process(
        myp_spec, "Server", myp_server(fault=FAULT_TRACE), fast_config(max_steps=200, seed=1)
    )
    assert rep.verdict is Verdict.INVALID_TRACE
    assert rep.trace[-1] == ("!", "Data")


def test_client_role_iut(myp_spec):
    rep = run_in_process(
        myp_spec,
        "Client",
        lambda ch: run_myp_client(ch, seed=9),
        fast_config(max_steps=200, seed=2),
    )
    assert rep.verdict is Verdict.PASS


def test_engine_never_sends_outside_enabled_inputs(myp_spec):
    lts = myp_spec.actors["Server"]
    sent_ok = []

    def checking_strategy(states, choices, coverage, rng):
        allowed = set(lts.enabled_inputs(states))
        choice = default_strategy(states, choices, coverage, rng)
        sent_ok.append(choice in allowed)
        return choice

    rep = run_in_process(
        myp_spec, "Server", myp_server(), fast_config(max_steps=40, seed=3),
        strategy=checking_strategy,
    )
    assert rep.verdict is Verdict.PASS
    assert sent_ok and all(sent_ok)


def test_state_sets_match_brute_force_replay(myp_spec):
    lts = myp_spec.actors["Server"]
    rep = run_in_process(myp_spec, "Server", myp_server(), fast_config(max_steps=50, seed=4))
    assert rep.verdict is Verdict.PASS
    trace = []
    for direction, msg, engine_states in rep.step_log:
        trace.append((direction, msg))
        assert engine_states == states_after(lts, trace)


def test_inconclusive_on_silent_peer_without_inputs(myp_spec):
    # test the Client model against a peer that never talks: the engine
    # cannot send (Starting has no receive edges) and must call livelock
    def mute(ch):
        StreamReader(ch).read_exact(1)

    rep = run_in_process(
        myp_spec, "Client", mute,
        fast_config(max_steps=50, seed=5, max_consecutive_timeouts=3),
    )
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert "livelock" in rep.detail


def test_close_without_quit_edge_is_trace_error(myp_spec):
    def hangup(ch):
        reader = StreamReader(ch)
        reader.read_exact(1)  # consume the first Ask, then vanish
        ch.close()

    rep = run_in_process(myp_spec, "Server", hangup, fast_config(max_steps=50, seed=6))
    assert rep.verdict is Verdict.INVALID_TRACE
    assert rep.trace[-1] == ("quit", None)
    assert rep.step_log[-1] == ("quit", None, frozenset())  # no transition allows it


def test_stalled_partial_message_is_format_error(myp_spec):
    def staller(ch):
        reader = StreamReader(ch)
        reader.read_exact(1)
        ch.send(b"\x00\x00\x00\x00")  # Data header + half a count, then silence
        reader.read_exact(1)  # park until the engine gives up

    rep = run_in_process(
        myp_spec, "Server", staller,
        fast_config(max_steps=50, seed=7, max_consecutive_timeouts=3),
    )
    assert rep.verdict is Verdict.INVALID_FORMAT
    assert rep.detail == "stalled mid-message"


def test_reply_that_no_bytes_can_mend_is_format_error(imap_spec):
    # the X of LOGOUX rules out every response, so the engine rejects the
    # line at once instead of waiting for bytes that cannot make it valid
    def iut(ch):
        reader = StreamReader(ch)
        ch.send(b"* OK ready\r\n")
        reader.read_line()  # the LoginCmd
        ch.send(b"a1 LOGOUX\r\n")
        reader.read_exact(1)  # park until the engine gives up

    def login(states, choices, coverage, rng):
        return "LoginCmd"

    rep = run_in_process(
        imap_spec, "IMAPServer", iut,
        fast_config(max_steps=50, seed=0, max_consecutive_timeouts=3), strategy=login,
    )
    assert rep.verdict is Verdict.INVALID_FORMAT
    assert rep.detail != "stalled mid-message"
    assert rep.offending == b"a1 LOGOUX\r\n"
    assert "OkResp: ruled out by its wire prefix, incomplete: terminator ' ' not found" in rep.detail


def test_close_mid_message_is_format_error(myp_spec):
    def truncator(ch):
        reader = StreamReader(ch)
        reader.read_exact(1)
        ch.send(b"\x00\x00\x00")  # truncated Data
        ch.close()

    rep = run_in_process(myp_spec, "Server", truncator, fast_config(max_steps=50, seed=8))
    assert rep.verdict is Verdict.INVALID_FORMAT
    assert "closed mid-message" in rep.detail


def test_default_strategy_uniform():
    rng = Random(0)
    draws = Counter(
        default_strategy(frozenset(), ["Ask", "Done"], None, rng) for _ in range(1000)
    )
    assert 0.4 <= draws["Ask"] / 1000 <= 0.6
    assert default_strategy(frozenset(), ["Only"], None, rng) == "Only"


def test_verdict_exit_codes():
    assert Verdict.PASS.exit_code == 0
    assert Verdict.INVALID_FORMAT.exit_code == 1
    assert Verdict.INVALID_TRACE.exit_code == 2
    assert Verdict.INCONCLUSIVE.exit_code == 3


def test_coverage_records_presence_absence_and_enums(imap_spec):
    lts = imap_spec.actors["IMAPServer"]
    cov = Coverage(imap_spec, lts)
    gen = Generator(imap_spec, GenConfig(seed=0))
    cov.record_message(gen.message("OkResp"))
    assert cov.enums[("StatusResponseId", "ok")] == 1
    assert cov.fields[("OkResp", "resp")] == 1
    assert cov.fields[("StatusResponse", "tag")] == 1


def test_coverage_optional_goals(myp_spec):
    cov = Coverage(myp_spec, myp_spec.actors["Server"])
    assert ("Data", "foot") in cov.optional
    for seed in range(30):
        cov.record_message(Generator(myp_spec, GenConfig(seed=seed)).message("Data"))
    present, absent = cov.optional[("Data", "foot")]
    assert present > 0 and absent > 0
    # absent footers do not count as field occurrences
    assert cov.fields[("Data", "foot")] == present


def test_zero_step_run_reports_zero_coverage(myp_spec):
    def server(ch):
        StreamReader(ch).read_exact(1)

    rep = run_in_process(myp_spec, "Server", server, fast_config(max_steps=0, seed=0))
    assert rep.verdict is Verdict.PASS and rep.steps == 0
    summary = rep.coverage.summary()
    assert summary["transitions"] == (0, 3)
    assert summary["fields"][0] == 0


def test_uncovered_edges_reported_when_strategy_is_biased(myp_spec):
    def only_ask(states, choices, coverage, rng):
        return "Ask" if "Ask" in choices else default_strategy(states, choices, coverage, rng)

    rep = run_in_process(
        myp_spec, "Server", myp_server(), fast_config(max_steps=30, seed=9),
        strategy=only_ask,
    )
    assert rep.verdict is Verdict.PASS
    uncovered = {str(e) for e in rep.coverage.uncovered_transitions()}
    assert uncovered == {"Serving -?Done-> Serving"}


def test_selfplay_client_vs_server_passes(myp_spec):
    fit = check_fit(myp_spec.actor("Client"), myp_spec.actor("Server"))
    assert fit == Fit(configurations=9, bound_reached=False)


def test_selfplay_server_vs_client_passes(myp_spec):
    fit = check_fit(myp_spec.actor("Server"), myp_spec.actor("Client"))
    assert fit == Fit(configurations=9, bound_reached=False)


def test_selfplay_detects_model_mismatch():
    # edit the Server model to answer Ask with Done instead of Data
    source = bundled_spec_path("myp").read_text().replace(
        "on Ask  do send Data continue", "on Ask do send Done continue"
    )
    fits = []
    for _ in range(3):
        broken = resolve(parse_spec(source))
        fits.append(check_fit(broken.actor("Client"), broken.actor("Server")))
    assert fits[0].problem == "Client: no transition for ?Done from states {Waiting}"
    assert fits[0].trace == (("Client", "!Ask"), ("Server", "?Ask"), ("Server", "!Done"))
    assert not fits[0].deadlock and not fits[0].bound_reached
    assert fits == [fits[0]] * 3


PING_PONG = (
    "message Ping with k is Integer(value=1) as BigEndian(length=8) end "
    "message Pong with k is Integer(value=2) as BigEndian(length=8) end"
)


def test_fit_reports_actors_that_each_wait_for_the_other():
    spec = spec_of(
        PING_PONG,
        "actor A with init state S where on Ping do send Pong continue end end "
        "actor B with init state T where on Pong do send Ping continue end end",
    )
    fit = check_fit(spec.actor("A"), spec.actor("B"))
    assert fit.deadlock
    assert fit.problem == "deadlock: A waits in {S} and B waits in {T}, no message in flight"
    assert fit.trace == ()
    # a tau edge from the initial state reaches a send: no deadlock
    woken = spec_of(
        PING_PONG,
        "actor A with init state S where anytime do next T end "
        "state T where anytime do send Pong next S end end "
        "actor B with init state R where on Pong do continue end end",
    )
    assert [str(e) for e in woken.actor("A").edges] == ["S -tau-> T", "T -!Pong-> S"]
    assert check_fit(woken.actor("A"), woken.actor("B")) == Fit(QUEUE_BOUND + 1, True)


def test_fit_of_a_sender_that_never_waits_stops_at_the_queue_bound():
    spec = spec_of(
        PING_PONG,
        "actor A with init state S where anytime do send Ping continue end end "
        "actor B with init state T where on Ping do continue end end",
    )
    # one configuration per queue length from empty to full
    fit = check_fit(spec.actor("A"), spec.actor("B"))
    assert fit == Fit(configurations=QUEUE_BOUND + 1, bound_reached=True)


def test_fit_follows_a_reply_behind_an_anonymous_hub_state():
    server = (
        "actor Server with init state S where "
        "on Ping do send Pong continue or do {} continue end end"
    )
    # Ping leads to a hub state with a tau edge back: the server's set after
    # ?Ping is {S, u1}, so it takes the next Ping while a Pong is still due
    quiet = spec_of(
        PING_PONG,
        "actor Client with init state A where anytime do send Ping continue "
        "on Pong do continue end end " + server.format(""),
    )
    assert [str(e) for e in quiet.actor("Server").edges] == [
        "S -?Ping-> u1", "u1 -!Pong-> S", "u1 -tau-> S",
    ]
    fit = check_fit(quiet.actor("Client"), quiet.actor("Server"))
    assert (fit.problem, fit.bound_reached) == ("", True)
    # a second reply from the hub that a waiting client does not expect
    echo = spec_of(
        PING_PONG,
        "actor Client with init state A where anytime do send Ping next W end "
        "state W where on Pong do next A end end " + server.format("send Ping"),
    )
    fit = check_fit(echo.actor("Client"), echo.actor("Server"))
    assert fit.problem == "Client: no transition for ?Ping from states {W}"
    assert fit.trace == (("Client", "!Ping"), ("Server", "?Ping"), ("Server", "!Ping"))


def spec_of(messages, actor):
    return resolve(parse_spec(
        f"message module M {messages} end interactions module M {actor} end"
    ))


def answer_one_message(reply, close=False):
    """An IUT that reads one message, sends ``reply`` and, if asked, closes."""

    def iut(ch):
        StreamReader(ch).read_exact(1)
        ch.send(reply)
        if close:
            ch.close()

    return iut


def test_coverage_counts_only_what_the_actor_exchanges():
    spec = spec_of(
        "message Ping with k is Integer(value=1) as BigEndian(length=8) end "
        "message Pong with k is Integer(value=2) as BigEndian(length=8) end "
        "message Oops with k is Integer(value=3) as BigEndian(length=8) "
        "x is Integer as BigEndian(length=8) end",
        "actor Server with init state S where on Ping do send Pong continue end end",
    )
    rep = run_in_process(spec, "Server", answer_one_message(b"\x03\x07"), fast_config(seed=0))
    assert rep.verdict is Verdict.INVALID_TRACE
    assert rep.trace == [("?", "Ping"), ("!", "Oops")]
    # the fallback classified Oops for diagnosis; it adds no goals of its own
    assert rep.coverage.summary()["fields"] == (1, 2)
    assert set(rep.coverage.fields) == {("Ping", "k"), ("Pong", "k")}


def test_message_classified_only_once_the_peer_closes():
    # 01 05 is a prefix of the enabled Long, and a whole Short once nothing follows
    spec = spec_of(
        "message Ping with k is Integer(value=9) as BigEndian(length=8) end "
        "message Long with k is Integer(value=1) as BigEndian(length=8) "
        "n is Integer as BigEndian(length=16) end "
        "message Short with k is Integer(value=1) as BigEndian(length=8) "
        "n is Integer as BigEndian(length=8) end",
        "actor Server with init state S where on Ping do send Long continue end end",
    )
    iut = answer_one_message(b"\x01\x05", close=True)
    rep = run_in_process(spec, "Server", iut, fast_config(seed=0))
    assert rep.verdict is Verdict.INVALID_TRACE
    assert rep.detail == "no transition for !Short from states {u1}"
    assert rep.trace == [("?", "Ping"), ("!", "Short")]

