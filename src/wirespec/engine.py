"""The traversal test engine.

Drives an implementation-under-test over a byte channel: classifies
incoming bytes against the message types the model allows right now,
chooses messages to send via a strategy when the IUT is quiet, maintains
the trace and the set of possible model states, and reports one of four
verdicts plus coverage.

Two roles share the loop.  As ``TESTER`` (the normal case) the engine
plays the environment of the modeled actor and judges the peer against
that model.  As ``ACTOR`` it animates the model itself, sending outputs
and expecting its declared inputs; wiring two ACTOR engines back to back
is how selfplay checks that two actor models fit each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from . import channel as chan
from .codec import Classified, InvalidFormat, NEED_MORE, decode_message, encode_message
from .coverage import Coverage
from .errors import ChannelError
from .generate import GenConfig, Generator
from .lts import QUIT
from .resolve import ResolvedSpec

QUIT_CHOICE = "quit"


class Role(enum.Enum):
    TESTER = "tester"
    ACTOR = "actor"


class Verdict(enum.Enum):
    PASS = "Pass"
    INVALID_FORMAT = "InvalidFormat"
    INVALID_TRACE = "InvalidTrace"
    INCONCLUSIVE = "Inconclusive"

    @property
    def exit_code(self) -> int:
        return {
            Verdict.PASS: 0,
            Verdict.INVALID_FORMAT: 1,
            Verdict.INVALID_TRACE: 2,
            Verdict.INCONCLUSIVE: 3,
        }[self]


CHANNEL_ERROR_EXIT = 4


@dataclass
class EngineConfig:
    max_steps: int = 100
    receive_timeout_ms: int = 2000
    max_consecutive_timeouts: int = 5
    seed: int = 0
    gen: GenConfig | None = None


@dataclass
class TestReport:
    verdict: Verdict
    detail: str
    actor: str
    role: Role
    seed: int
    steps: int
    step_log: list  # (direction, message type, state set) per step; see trace
    coverage: Coverage
    offending: bytes | None = None

    @property
    def trace(self) -> list:
        """The (direction, message type) pairs of the steps; direction is '!', '?'
        or 'quit'.  A step that no transition allows has the empty state set."""
        return [(direction, msg) for direction, msg, _ in self.step_log]


def default_strategy(states, choices, coverage, rng: Random) -> str:
    """Uniform random choice among the currently allowed message types."""
    return rng.choice(sorted(choices))


def run_test(
    spec: ResolvedSpec,
    actor: str,
    channel: chan.Channel,
    cfg: EngineConfig,
    strategy=default_strategy,
    role: Role = Role.TESTER,
) -> TestReport:
    lts = spec.actors[actor]
    rng = Random(cfg.seed)
    gen = Generator(spec, cfg.gen or GenConfig(), rng=rng)
    cov = Coverage(spec, lts)
    recv_dir = "!" if role is Role.TESTER else "?"
    send_dir = "?" if role is Role.TESTER else "!"

    S, tau_used = lts.tau_closure_edges({lts.initial})
    cov.hit_edges(tau_used)
    buf = b""
    step_log = []
    steps = 0
    quiet = 0
    closed = False  # the peer has closed; what is in buf is all there is

    def report(verdict: Verdict, detail: str = "", offending: bytes | None = None):
        return TestReport(verdict, detail, actor, role, cfg.seed, steps, step_log, cov, offending)

    def advance(direction: str, msg: str | None, value) -> TestReport | None:
        """Extend the step log and state set; returns an InvalidTrace report or None."""
        nonlocal S, steps
        if value is not None:
            cov.record_message(value)
        label = QUIT if direction == "quit" else (direction, msg)
        moved, used = lts.successors_edges(S, label)
        cov.hit_edges(used)
        if not moved:
            step_log.append((direction, msg, moved))
            shown = "quit" if direction == "quit" else f"{direction}{msg}"
            return report(
                Verdict.INVALID_TRACE,
                f"no transition for {shown} from states {{{', '.join(sorted(S))}}}",
            )
        S, tau_edges = lts.tau_closure_edges(moved)
        cov.hit_edges(tau_edges)
        steps += 1
        step_log.append((direction, msg, S))
        return None

    def classify(final: bool):
        """('msg', Classified) | ('wait', None) | ('invalid', diagnostics)."""
        enabled = lts.enabled(S, recv_dir)
        diagnostics = {}
        if enabled:
            outcome = decode_message(buf, enabled, spec)
            if isinstance(outcome, Classified):
                return "msg", outcome
            if outcome is NEED_MORE:
                if not final:
                    return "wait", None
                diagnostics["*"] = "input ended mid-message"
            else:
                diagnostics.update(outcome.diagnostics)
        # fallback: non-enabled types, tried purely for diagnosis; a parse
        # here becomes an InvalidTrace through the normal state-set update
        others = [m for m in spec.message_types if m not in enabled]
        if others:
            outcome = decode_message(buf, others, spec)
            if isinstance(outcome, Classified):
                return "msg", outcome
            if outcome is NEED_MORE and not final and not enabled:
                return "wait", None
            if isinstance(outcome, InvalidFormat):
                diagnostics.update(outcome.diagnostics)
        return "invalid", diagnostics

    def format_diag(diagnostics) -> str:
        return "; ".join(f"{k}: {v}" for k, v in sorted(diagnostics.items()))

    while True:
        if steps >= cfg.max_steps:
            return report(Verdict.PASS, f"step budget of {cfg.max_steps} reached")

        if buf:
            kind, outcome = classify(final=closed)
            if kind == "msg":
                buf = buf[outcome.consumed :]
                bad = advance(recv_dir, outcome.msg_type, outcome.value)
                if bad:
                    return bad
                continue
            if kind == "invalid":
                detail = format_diag(outcome)
                if closed:
                    detail = "connection closed mid-message: " + detail
                return report(Verdict.INVALID_FORMAT, detail, offending=buf)
        if closed:
            break

        result = channel.recv(cfg.receive_timeout_ms)

        if isinstance(result, chan.Bytes):
            buf += result.data
            quiet = 0
            continue

        if result is chan.TIMEOUT:
            if buf:
                # a partial message is pending; never send into the middle of it
                quiet += 1
                if quiet > cfg.max_consecutive_timeouts:
                    return report(Verdict.INVALID_FORMAT, "stalled mid-message", offending=buf)
                continue
            choices = list(
                lts.enabled_inputs(S) if role is Role.TESTER else lts.enabled_outputs(S)
            )
            if role is Role.ACTOR and lts.quit_enabled(S):
                choices.append(QUIT_CHOICE)
            if not choices:
                quiet += 1
                if quiet > cfg.max_consecutive_timeouts:
                    return report(
                        Verdict.INCONCLUSIVE,
                        "livelock: nothing to send and the peer stays quiet",
                    )
                continue
            quiet = 0
            choice = strategy(S, choices, cov, rng)
            if choice == QUIT_CHOICE:
                channel.close()
                bad = advance("quit", None, None)
                if bad:
                    return bad
                return report(Verdict.PASS, "closed the connection per the model")
            value = gen.message(choice)
            channel.send(encode_message(choice, value, spec))
            bad = advance(send_dir, choice, value)
            if bad:
                return bad
            continue

        closed = True  # the top of the loop classifies what is left in buf

    if role is Role.ACTOR:
        return report(Verdict.PASS, "peer ended the session")
    if lts.quit_enabled(S):
        bad = advance("quit", None, None)
        if bad:
            return bad
        return report(Verdict.PASS, "IUT closed the connection per the model")
    step_log.append(("quit", None, frozenset()))
    return report(
        Verdict.INVALID_TRACE,
        f"IUT closed the connection but no quit is allowed in {{{', '.join(sorted(S))}}}",
    )


def selfplay(
    spec: ResolvedSpec,
    actor_a: str,
    actor_b: str,
    cfg: EngineConfig,
) -> TestReport:
    """Animate both actors against each other over an in-process pair.

    Side B runs in a background thread as a conforming peer; side A's
    report is returned, so a verdict flags a point where the two models
    stop fitting together.
    """
    import threading

    ch_a, ch_b = chan.in_process_pair()
    cfg_b = EngineConfig(
        max_steps=cfg.max_steps * 2 + 10,
        receive_timeout_ms=cfg.receive_timeout_ms,
        max_consecutive_timeouts=cfg.max_consecutive_timeouts * 4,
        seed=cfg.seed + 1,
        gen=cfg.gen,
    )

    def run_b():
        try:
            run_test(spec, actor_b, ch_b, cfg_b, role=Role.ACTOR)
        except ChannelError:
            pass
        finally:
            ch_b.close()

    thread = threading.Thread(target=run_b, daemon=True)
    thread.start()
    try:
        return run_test(spec, actor_a, ch_a, cfg, role=Role.ACTOR)
    finally:
        ch_a.close()
        thread.join(timeout=5)
