"""The traversal test engine.

Drives an implementation-under-test over a byte channel: classifies
incoming bytes against the message types the model allows right now,
chooses messages to send via a strategy when the IUT is quiet, maintains
the trace and the set of possible model states, and reports one of four
verdicts plus coverage.

The engine plays the environment of the modeled actor: it sends the
actor's inputs and judges what the peer sends against the actor's
outputs.  Whether two actor models fit each other is decided without a
channel, by ``wirespec.lts.check_fit``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from . import channel as chan
from .codec import Classified, InvalidFormat, NEED_MORE, decode_message, encode_message
from .coverage import Coverage
from .generate import Generator
from .lts import QUIT, format_states
from .resolve import ResolvedSpec


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

# Receive timeouts in a row after which a quiet peer ends the run, as a
# stall mid-message or, with nothing to send, as a livelock.
MAX_CONSECUTIVE_TIMEOUTS = 5


@dataclass
class EngineConfig:
    max_steps: int = 100
    receive_timeout_ms: int = 2000
    seed: int = 0
    # No effect: run_test's rng, seeded from ``seed``, overrides its seed.
    # Kept for callers that still pass a wirespec.generate.GenConfig.
    gen: object = None


@dataclass
class TestReport:
    verdict: Verdict
    detail: str
    actor: str
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
) -> TestReport:
    lts = spec.actor(actor)
    rng = Random(cfg.seed)
    gen = Generator(spec, rng=rng)
    cov = Coverage(spec, lts)

    S, tau_used = lts.tau_closure_edges({lts.initial})
    cov.hit_edges(tau_used)
    buf = b""
    step_log = []
    steps = 0
    quiet = 0
    closed = False  # the peer has closed; what is in buf is all there is

    def report(verdict: Verdict, detail: str = "", offending: bytes | None = None):
        return TestReport(verdict, detail, actor, cfg.seed, steps, step_log, cov, offending)

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
            return report(
                Verdict.INVALID_TRACE,
                f"no transition for {direction}{msg} from states {format_states(S)}",
            )
        S, tau_edges = lts.tau_closure_edges(moved)
        cov.hit_edges(tau_edges)
        steps += 1
        step_log.append((direction, msg, S))
        return None

    def classify(final: bool):
        """('msg', Classified) | ('wait', None) | ('invalid', diagnostics)."""
        enabled = lts.enabled(S, "!")
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
                bad = advance("!", outcome.msg_type, outcome.value)
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
                if quiet > MAX_CONSECUTIVE_TIMEOUTS:
                    return report(Verdict.INVALID_FORMAT, "stalled mid-message", offending=buf)
                continue
            choices = lts.enabled_inputs(S)
            if not choices:
                quiet += 1
                if quiet > MAX_CONSECUTIVE_TIMEOUTS:
                    return report(
                        Verdict.INCONCLUSIVE,
                        "livelock: nothing to send and the peer stays quiet",
                    )
                continue
            quiet = 0
            choice = strategy(S, choices, cov, rng)
            value = gen.message(choice)
            channel.send(encode_message(choice, value, spec))
            bad = advance("?", choice, value)
            if bad:
                return bad
            continue

        closed = True  # the top of the loop classifies what is left in buf

    if lts.quit_enabled(S):
        advance("quit", None, None)  # cannot fail: quit is enabled
        return report(Verdict.PASS, "IUT closed the connection per the model")
    step_log.append(("quit", None, frozenset()))
    return report(
        Verdict.INVALID_TRACE,
        f"IUT closed the connection but no quit is allowed in {format_states(S)}",
    )
