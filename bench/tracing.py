"""In-memory spans around the calls into each wirespec layer.

Nothing inside the package is instrumented.  A traced run wraps, from
here, the public calls one layer makes into the next:

- the ``Channel`` object handed to ``run_test``;
- the names ``wirespec.engine`` calls: ``decode_message``,
  ``encode_message``, ``Generator.message`` and the ``Coverage`` methods;
- the tested actor's ``IOLTS``, swapped in through a shallow copy of
  ``ResolvedSpec.actors``.

Every span has a name, a start, an end, a parent and a session id.  The
per-layer metrics are derived from the spans once the run is over.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from time import perf_counter

from wirespec import channel as chan
from wirespec import engine
from wirespec.codec import Classified, NEED_MORE


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "session", "attrs")

    def __init__(self, id, name, start, parent, session, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.session = session
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "session": self.session,
            **self.attrs,
        }


class Tracer:
    """Records spans of one thread (the engine's) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.session = None
        self.last_enabled = None  # the list the tested IOLTS's enabled() returned last
        self._stack: list[Span] = []

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent, self.session, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        span.end = perf_counter()
        span.attrs.update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict()) + "\n")


# --- wrappers ---------------------------------------------------------------------


class TracedChannel:
    """A Channel whose send and recv calls become spans."""

    def __init__(self, inner: chan.Channel, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def send(self, data: bytes) -> None:
        with self._tracer.span("channel.send", bytes=len(data)):
            self._inner.send(data)

    def recv(self, timeout_ms: int):
        span = self._tracer.begin("channel.recv")
        result = None
        try:
            result = self._inner.recv(timeout_ms)
            return result
        finally:
            if isinstance(result, chan.Bytes):
                self._tracer.end(span, result="bytes", bytes=len(result.data))
            elif result is chan.TIMEOUT:
                self._tracer.end(span, result="timeout")
            else:
                self._tracer.end(span, result="closed" if result is chan.PEER_CLOSED else "error")

    def close(self) -> None:
        self._inner.close()


class TracedLTS:
    """The tested actor's IOLTS with its state-set calls recorded."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _call(self, name, *args):
        with self._tracer.span("lts." + name) as span:
            result = getattr(self._inner, name)(*args)
        if name == "tau_closure_edges":
            span.attrs["states"] = len(result[0])
        return result

    def tau_closure_edges(self, states):
        return self._call("tau_closure_edges", states)

    def successors_edges(self, states, label):
        return self._call("successors_edges", states, label)

    def enabled(self, states, direction):
        result = self._call("enabled", states, direction)
        self._tracer.last_enabled = result
        return result

    def enabled_inputs(self, states):
        return self._call("enabled_inputs", states)

    def enabled_outputs(self, states):
        return self._call("enabled_outputs", states)

    def quit_enabled(self, states):
        return self._call("quit_enabled", states)


def traced_spec(spec, actor: str, tracer: Tracer):
    """A shallow copy of ``spec`` whose tested actor is a TracedLTS."""
    out = copy.copy(spec)
    out.actors = dict(spec.actors)
    out.actors[actor] = TracedLTS(spec.actors[actor], tracer)
    return out


def outcome_kind(outcome) -> str:
    if isinstance(outcome, Classified):
        return "classified"
    return "need_more" if outcome is NEED_MORE else "invalid"


class CodecCalls:
    """decode_message, encode_message and Generator.message, plain or traced.

    The codec workloads call the layers through one of these, and the
    engine gets the traced functions patched in by :func:`traced_engine`.
    """

    def __init__(self, tracer: Tracer | None = None):
        from wirespec.codec import decode_message, encode_message
        from wirespec.generate import Generator

        if tracer is None:
            self.decode_message = decode_message
            self.encode_message = encode_message
            self.Generator = Generator
            return

        def traced_decode(buf, candidates, spec, *args, **kwargs):
            enabled = candidates is tracer.last_enabled
            span = tracer.begin(
                "codec.decode",
                enabled=enabled,
                candidates=len(candidates),
                buffer=len(buf),
            )
            outcome = None
            try:
                outcome = decode_message(buf, candidates, spec, *args, **kwargs)
                return outcome
            finally:
                kind = "error" if outcome is None else outcome_kind(outcome)
                tracer.end(span, outcome=kind)

        def traced_encode(msg_type, value, spec):
            with tracer.span("codec.encode", msg=msg_type) as span:
                out = encode_message(msg_type, value, spec)
            span.attrs["bytes"] = len(out)
            return out

        class TracedGenerator(Generator):
            def message(self, msg_type):
                with tracer.span("generate.message", msg=msg_type):
                    return super().message(msg_type)

        self.decode_message = traced_decode
        self.encode_message = traced_encode
        self.Generator = TracedGenerator


@contextmanager
def traced_engine(tracer: Tracer):
    """Patch the codec, generator and coverage names ``wirespec.engine`` calls."""
    calls = CodecCalls(tracer)
    base_coverage = engine.Coverage

    class TracedCoverage(base_coverage):
        def hit_edges(self, edges):
            with tracer.span("coverage.hit_edges"):
                return super().hit_edges(edges)

        def record_message(self, value):
            with tracer.span("coverage.record_message"):
                return super().record_message(value)

    patched = {
        "decode_message": calls.decode_message,
        "encode_message": calls.encode_message,
        "Generator": calls.Generator,
        "Coverage": TracedCoverage,
    }
    saved = {name: getattr(engine, name) for name in patched}
    for name, value in patched.items():
        setattr(engine, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(engine, name, value)


# --- per-layer metrics from spans ------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures from the spans of one traced run.

    Returns name -> (value, unit).  Per-step figures divide by the steps
    of the traced engine sessions.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    sessions = by_name.get("session", [])
    steps = sum(s.attrs["steps"] for s in sessions) or 1
    session_wall = sum(s.duration for s in sessions) or 1.0

    recvs = by_name.get("channel.recv", [])
    timeout_wall = sum(s.duration for s in recvs if s.attrs["result"] == "timeout")

    # Children are summed over direct descendants of each session span.
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    engine_self = sum(s.duration - child_time.get(s.id, 0.0) for s in sessions)

    spans_per_exchange, chunks_per_exchange = _replies(spans)

    decodes = by_name.get("codec.decode", [])
    enabled = [s for s in decodes if s.attrs["enabled"]]
    fallback = [s for s in decodes if not s.attrs["enabled"]]
    classified = sum(1 for s in decodes if s.attrs["outcome"] == "classified")
    coverage_time = sum(s.duration for s in spans if s.name.startswith("coverage."))
    lts = [s for s in spans if s.name.startswith("lts.")]

    us, ms = 1e6, 1e3
    return {
        "channel.timeout_share": (timeout_wall / session_wall, "share"),
        "channel.reply_span_ms": (_mean(spans_per_exchange) * ms, "ms"),
        "channel.recv_chunks_per_exchange": (_mean(chunks_per_exchange), "count"),
        "channel.recv_wait_ms_per_step": (sum(s.duration for s in recvs) / steps * ms, "ms"),
        "channel.send_us": (_mean(s.duration for s in by_name.get("channel.send", [])) * us, "us"),
        "codec.decode_us": (_mean(s.duration for s in decodes) * us, "us"),
        "codec.decode_us_enabled": (_mean(s.duration for s in enabled) * us, "us"),
        "codec.decode_us_fallback": (_mean(s.duration for s in fallback) * us, "us"),
        "codec.decode_fallback_share": (len(fallback) / (len(decodes) or 1), "share"),
        "codec.candidates_per_call": (_mean(s.attrs["candidates"] for s in decodes), "count"),
        "codec.buffer_bytes_per_call": (_mean(s.attrs["buffer"] for s in decodes), "bytes"),
        "codec.decode_useful_share": (classified / (len(decodes) or 1), "share"),
        "codec.decode_calls_per_msg": (len(decodes) / (classified or 1), "count"),
        "codec.encode_us": (_mean(s.duration for s in by_name.get("codec.encode", [])) * us, "us"),
        "generate.msg_us": (_mean(s.duration for s in by_name.get("generate.message", [])) * us, "us"),
        "lts.us_per_step": (sum(s.duration for s in lts) / steps * us, "us"),
        "lts.state_set_max": (max((s.attrs.get("states", 0) for s in lts), default=0), "count"),
        "coverage.us_per_step": (coverage_time / steps * us, "us"),
        "engine.self_us_per_step": (engine_self / steps * us, "us"),
    }


def _replies(spans: list[Span]) -> tuple[list, list]:
    """Per exchange with a reply: seconds from the start of the first recv
    that returned Bytes to the end of the last one before the next send,
    and the number of such recvs."""
    reply_spans, chunks = [], []
    pending: dict = {}  # session -> Bytes recv spans since its last send

    def close(session):
        got = pending.pop(session, None)
        if got:
            reply_spans.append(got[-1].end - got[0].start)
            chunks.append(len(got))

    for s in spans:
        if s.name == "channel.send":
            close(s.session)
            pending[s.session] = []
        elif s.name == "channel.recv" and s.attrs["result"] == "bytes" and s.session in pending:
            pending[s.session].append(s)
    for session in list(pending):
        close(session)
    return reply_spans, chunks
