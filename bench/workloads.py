"""The four benchmark workloads and their end-to-end metrics.

Every workload is a closed loop from one process: one engine session at a
time on one connection, or one codec batch at a time.  Inputs come from
the run's seed only.  Every output is checked: an engine session against
its expected verdict, a codec message against the type, value and byte
count it was generated with.  Failures are counted, never raised.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter, process_time

from wirespec.channel import connect_tcp, in_process_pair
from wirespec.cli import bundled_spec_path
from wirespec.codec import Classified, NEED_MORE
from wirespec.engine import EngineConfig, Verdict, run_test
from wirespec.errors import ChannelError
from wirespec.generate import GenConfig
from wirespec.iuts import start_in_thread
from wirespec.iuts.miniimap import run_mini_imap
from wirespec.iuts.myp import FAULT_FORMAT, FAULT_TRACE, IutBehavior, run_myp_server
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec

import probes
import tracing

BENCH_DIR = Path(__file__).resolve().parent
RECEIVE_TIMEOUT_MS = 10  # the test suite's FAST_TIMEOUT_MS
READ_SIZE = 65536  # what Channel.recv asks the socket for
SETUP_REPEATS = 15

# The end-to-end metrics BENCHMARK.json lists, which every workload
# reports.  An "op" is an engine step on the engine workloads and one
# message through generate, encode and decode on the codec workloads;
# latency is send-to-send exchange time there, and decode time per
# classified message here.  setup_s, the codec workloads' figures and the
# engine workloads' CPU are scaled to the reference speed (see
# Calibrator).  The other end-to-end figures are printed as measured and
# kept in the results file.
GATED = ("setup_s", "ops_per_s", "latency_ms_p50", "latency_ms_p90", "cpu_ms_per_op")

# Per-layer figures printed but left out of the last line: zero on runs
# that make no such call (healthy imap-tcp sessions never fall back).
LAYER_PRINTED_ONLY = ("codec.decode_us_fallback",)

# A shared host's speed for one thread swings by tens of percent within
# milliseconds and drifts over minutes, and it slows wirespec and any other
# Python code alike.  The benchmark times a fixed task next to CPU-bound
# work and scales that work's time by (reference time) / (the task's mean
# time): the figure the host would give at the speed where the task takes
# its reference time.
REFERENCE_S = 0.003  # calibration_s, run every 20 ms of codec work
WAKE_REFERENCE_S = 180e-6  # wake_calibration_s, run every 0.3 s of sessions

HEALTHY = "healthy"
EXPECTED = {
    HEALTHY: Verdict.PASS,
    FAULT_FORMAT: Verdict.INVALID_FORMAT,
    FAULT_TRACE: Verdict.INVALID_TRACE,
}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # bundled spec name
    actor: str | None = None  # engine workloads: the tested actor
    kinds: tuple = (HEALTHY,)  # engine workloads: IUT behaviours, in rotation
    max_steps: int = 0
    batch: int = 0  # codec workloads: messages per batch
    one_per_read: bool = False  # codec workloads: else 64 KB reads


WORKLOADS = {
    w.name: w
    for w in (
        Workload("myp-inproc", "myp", "Server", (HEALTHY, FAULT_FORMAT, FAULT_TRACE), max_steps=30),
        Workload("imap-tcp", "imap_subset", "IMAPServer", max_steps=100),
        Workload("codec-myp-burst", "myp", batch=1200),
        Workload("codec-imap-lines", "imap_subset", batch=400, one_per_read=True),
    )
}


@dataclass
class Result:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    hard_failures: int  # failures no scheduling delay can explain
    env: dict = field(default_factory=dict)
    tracer: tracing.Tracer | None = None


# --- set-up ---------------------------------------------------------------------


_BIG = int.from_bytes(bytes(range(256)) * 128, "big")  # 32 KB


def calibration_s() -> float:
    """Wall time of a fixed pure-Python task: small dict, list, int and str
    work, then masks and shifts of a 32 KB integer, as BitString does.

    Both halves are needed: the small-object half alone tracked the
    shallow IMAP codec loop but not the 64 KB MyP buffers.
    """
    start = perf_counter()
    table, total = {}, 0
    for i in range(5600):
        total += (i * 7919) % 13
        table[i & 255] = [i, total, str(i)]
    bits = _BIG.bit_length()
    for k in range(60):
        rest = _BIG & ((1 << (bits - 8 * k)) - 1)
        total ^= (rest >> (bits - 8 * k - 8)) & 0xFF
    return perf_counter() - start


def wake_calibration_s(cycles: int = 5) -> float:
    """Mean CPU time of a small task run right after a 10 ms sleep.

    The engine spends its CPU in short bursts after waking from a receive
    timeout, and a core that idled runs slower than a hot loop: this task
    tracked the engine's CPU per step where calibration_s did not.
    """
    total = 0.0
    for _ in range(cycles):
        time.sleep(0.01)
        start = process_time()
        table, acc = {}, 0
        for i in range(400):
            acc += (i * 7919) % 13
            table[i & 255] = [i, acc, str(i)]
        total += process_time() - start
    return total / cycles


class Calibrator:
    """Runs a calibration task whenever ``every_s`` has passed since the last."""

    def __init__(self, task=calibration_s, reference_s=REFERENCE_S, every_s=0.02):
        self.task = task
        self.reference_s = reference_s
        self.every_s = every_s
        self.samples = 0
        self.total = 0.0  # of the task's results
        self.cpu = 0.0  # process CPU the task used
        self.last = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self.last >= self.every_s:
            self.run()

    def run(self) -> None:
        c0 = process_time()
        self.total += self.task()
        self.cpu += process_time() - c0
        self.samples += 1
        self.last = perf_counter()

    @property
    def scale(self) -> float:
        if not self.samples:
            self.run()
        return self.samples * self.reference_s / self.total


def setup(spec_name: str):
    """Parse and resolve a bundled spec SETUP_REPEATS times.

    Returns the last ResolvedSpec, the parse and resolve times, and the
    scale factor for each repeat (see Calibrator).
    """
    text = bundled_spec_path(spec_name).read_text()
    parse_s, resolve_s, scales = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ast = parse_spec(text)
        t1 = perf_counter()
        spec = resolve(ast)
        parse_s.append(t1 - t0)
        resolve_s.append(perf_counter() - t1)
        scales.append(REFERENCE_S / calibration_s())
    return spec, parse_s, resolve_s, scales


# --- engine sessions -------------------------------------------------------------------


@dataclass
class Session:
    kind: str
    expected: Verdict
    verdict: Verdict | None  # None: the channel failed
    detail: str
    wall: float
    cpu: float
    steps: int
    transitions: int
    sends: list
    iut_cpu: float
    scale: float = 1.0  # of the loop that ran it, see Calibrator

    @property
    def failed(self) -> bool:
        return self.verdict is not self.expected

    @property
    def hard_failure(self) -> bool:
        # Inconclusive is the engine's reading of a reply slower than the
        # receive timeout; everything else is a wrong answer.
        return self.failed and self.verdict is not Verdict.INCONCLUSIVE


class SendClock:
    """Channel wrapper that only timestamps sends (the untraced run's probe)."""

    def __init__(self, inner):
        self.inner = inner
        self.sends = []

    def send(self, data: bytes) -> None:
        self.sends.append(perf_counter())
        self.inner.send(data)

    def recv(self, timeout_ms: int):
        return self.inner.recv(timeout_ms)

    def close(self) -> None:
        self.inner.close()


@contextmanager
def thread_iut(serve):
    """An in-process pair with ``serve(iut_end)`` on a thread.

    Yields the engine end and a list that receives the IUT thread's CPU
    seconds once it has ended.
    """
    engine_end, iut_end = in_process_pair()
    cpu = []

    def run():
        start = time.thread_time()
        try:
            serve(iut_end)
        finally:
            cpu.append(time.thread_time() - start)

    thread = start_in_thread(run)
    try:
        yield engine_end, cpu
    finally:
        engine_end.close()
        thread.join(timeout=5)
        iut_end.close()
        if thread.is_alive():
            raise RuntimeError("IUT thread did not end")


@contextmanager
def tcp_iut(port: int):
    channel = connect_tcp("127.0.0.1", port)
    try:
        yield channel, []
    finally:
        channel.close()


class ServeProcess:
    """``wirespec serve IUT --port 0`` in a subprocess running the checkout's source."""

    def __init__(self, iut: str, src: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "iut_serve.py"), iut, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.proc.stderr.readline()
        found = re.search(r"listening on port (\d+)", line)
        if not found:
            self.stop()
            raise RuntimeError(f"{iut} did not start: {line.strip()!r}")
        self.port = int(found.group(1))

    def stop(self) -> float:
        """Stop and reap the process; returns its CPU seconds spent serving."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        found = re.search(r"iut_cpu_s (\S+)", out or "")
        return float(found.group(1)) if found else 0.0


def engine_session(spec, actor, connect, cfg, kind, expected, tracer=None) -> Session:
    verdict, detail, steps, transitions = None, "", 0, 0
    with connect() as (channel, iut_cpu):
        if tracer is not None:
            channel = tracing.TracedChannel(channel, tracer)
        clock = SendClock(channel)
        span = tracer.begin("session", kind=kind) if tracer is not None else None
        t0, c0 = perf_counter(), process_time()
        report = None
        try:
            report = run_test(spec, actor, clock, cfg)
        except ChannelError as e:
            detail = f"channel error: {e}"
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            if report is not None:
                verdict, detail, steps = report.verdict, report.detail, report.steps
                transitions = report.coverage.summary()["transitions"][0]
            if span is not None:
                tracer.end(span, steps=steps, verdict=verdict.value if verdict else None)
    return Session(kind, expected, verdict, detail, wall, cpu, steps, transitions, clock.sends, sum(iut_cpu))


def engine_loop(w, spec, connect_for, rng, seconds, tracer=None, wrong=False) -> list[Session]:
    """Sessions in rotation over ``w.kinds`` until ``seconds`` have passed."""
    sessions = []
    run_spec = spec if tracer is None else tracing.traced_spec(spec, w.actor, tracer)
    patch = tracing.traced_engine(tracer) if tracer is not None else nullcontext()
    cal = Calibrator(wake_calibration_s, WAKE_REFERENCE_S, every_s=0.3)
    deadline = perf_counter() + seconds
    with patch:
        while not sessions or perf_counter() < deadline:
            kind = w.kinds[len(sessions) % len(w.kinds)]
            seed = rng.randrange(2**31)
            expected = EXPECTED[kind]
            if wrong and kind == HEALTHY:
                expected = Verdict.INVALID_FORMAT
            cfg = EngineConfig(
                max_steps=w.max_steps, receive_timeout_ms=RECEIVE_TIMEOUT_MS, seed=seed, gen=GenConfig(seed=seed)
            )
            if tracer is not None:
                tracer.session = len(sessions)
            sessions.append(
                engine_session(run_spec, w.actor, connect_for(kind, seed), cfg, kind, expected, tracer)
            )
            cal.tick()
    if tracer is not None:
        tracer.session = None
    for session in sessions:
        session.scale = cal.scale
    return sessions


def myp_connector(kind, seed):
    fault = None if kind == HEALTHY else kind
    behavior = IutBehavior("myp-server", "server", fault)
    return lambda: thread_iut(lambda ch: run_myp_server(ch, behavior, seed=seed))


def imap_thread_connector(kind, seed):
    return lambda: thread_iut(run_mini_imap)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def engine_metrics(sessions: list[Session]) -> dict:
    steps = sum(s.steps for s in sessions) or 1
    wall = sum(s.wall for s in sessions)
    exchanges = [b - a for s in sessions for a, b in zip(s.sends, s.sends[1:])] or [0.0]
    detected = [s.wall for s in sessions if s.kind != HEALTHY and not s.failed]
    covered = [s.transitions for s in sessions if s.kind == HEALTHY and not s.failed]
    out = {
        "steps_per_s": (steps / wall, "1/s"),
        "exchange_ms_p50": (percentile(exchanges, 50) * 1e3, "ms"),
        "exchange_ms_p90": (percentile(exchanges, 90) * 1e3, "ms"),
        "exchange_ms_p99": (percentile(exchanges, 99) * 1e3, "ms"),
        "exchanges": (len(exchanges), "count"),
        "cpu_ms_per_step": (sum(s.cpu for s in sessions) / steps * 1e3, "ms"),
        "transitions_covered": (statistics.fmean(covered) if covered else 0.0, "count"),
        "verdict_fail_share": (sum(s.failed for s in sessions) / len(sessions), "share"),
    }
    if any(s.kind != HEALTHY for s in sessions):
        # mean, not median: the sends before a fault shows are geometric with
        # p = 1/2, so the median sits on a jump between one and two exchanges
        out["detect_s"] = (statistics.fmean(detected) if detected else 0.0, "s")
    # Wall time here is mostly receive-timeout waiting: only CPU is scaled.
    out["ops_per_s"] = out["steps_per_s"]
    out["latency_ms_p50"] = out["exchange_ms_p50"]
    out["latency_ms_p90"] = out["exchange_ms_p90"]
    out["cpu_ms_per_op"] = (sum(s.cpu * s.scale for s in sessions) / steps * 1e3, "ms")
    return out


def engine_counts(sessions) -> tuple[int, int, int]:
    return len(sessions), sum(s.failed for s in sessions), sum(s.hard_failure for s in sessions)


# --- codec batches ---------------------------------------------------------------------


@dataclass
class Batch:
    messages: int
    gen_s: float
    encode_s: float
    decode_s: float
    cpu_s: float
    stream_bytes: int
    decode_us: list  # per classified message, NEED_MORE retries included
    failed: int
    scale: float  # see Calibrator


def codec_batch(w, spec, calls, gen, rng, wrong=False) -> Batch:
    """Generate, encode and concatenate ``w.batch`` messages, then feed the
    stream to an engine-style loop: decode the front against every type,
    slice, and on NEED_MORE append the next read."""
    types = spec.message_types
    chosen = [rng.choice(types) for _ in range(w.batch)]
    cal = Calibrator()
    c0 = process_time()
    values, wires, gen_s, encode_s = [], [], 0.0, 0.0
    for t in chosen:
        start = perf_counter()
        values.append(gen.message(t))
        gen_s += perf_counter() - start
        cal.tick()
    for t, v in zip(chosen, values):
        start = perf_counter()
        wires.append(calls.encode_message(t, v, spec))
        encode_s += perf_counter() - start
        cal.tick()

    data = b"".join(wires)
    bounds = [0]
    for wire in wires:
        bounds.append(bounds[-1] + len(wire))
    if w.one_per_read:
        read_ends = bounds[1:]
    else:
        read_ends = list(range(READ_SIZE, len(data), READ_SIZE)) + [len(data)]
    reads = iter(read_ends)

    expected_types = chosen
    if wrong:
        expected_types = [types[(types.index(t) + 1) % len(types)] for t in chosen]

    decode_us, failed, decode_s = [], 0, 0.0
    pos, end, buf, k, spent = 0, 0, b"", 0, 0.0
    while k < len(chosen):
        if not buf:
            end = next(reads)
            buf = data[pos:end]
        start = perf_counter()
        out = calls.decode_message(buf, types, spec)
        took = perf_counter() - start
        spent += took
        decode_s += took
        if out is NEED_MORE:
            nxt = next(reads, None)
            if nxt is None:
                failed += len(chosen) - k
                break
            end = nxt
            buf = data[pos:end]
            continue
        ok = (
            isinstance(out, Classified)
            and out.msg_type == expected_types[k]
            and out.value == values[k]
            and out.consumed == len(wires[k])
        )
        if ok:
            decode_us.append(spent * 1e6)
        else:
            failed += 1
        # resynchronise on the known boundary, so one bad message costs one
        k += 1
        pos = bounds[k]
        buf = data[pos:end] if end > pos else b""
        spent = 0.0
        cal.tick()
    scale = cal.scale
    cpu_s = process_time() - c0 - cal.cpu
    return Batch(len(chosen), gen_s, encode_s, decode_s, cpu_s, len(data), decode_us, failed, scale)


def codec_loop(w, spec, calls, rng, seconds, wrong=False) -> list[Batch]:
    gen = calls.Generator(spec, GenConfig(seed=rng.randrange(2**31)), rng=Random(rng.randrange(2**31)))
    batches = []
    deadline = perf_counter() + seconds
    while not batches or perf_counter() < deadline:
        batches.append(codec_batch(w, spec, calls, gen, rng, wrong))
    return batches


def codec_metrics(batches: list[Batch]) -> dict:
    """Rates are medians over batches, so a stall in one batch moves them little."""
    per_msg = [us for b in batches for us in b.decode_us] or [0.0]
    messages = sum(b.messages for b in batches)
    out = {
        "gen_msgs_s": (statistics.median(b.messages / b.gen_s for b in batches), "1/s"),
        "encode_mb_s": (statistics.median(b.stream_bytes / b.encode_s / 1e6 for b in batches), "MB/s"),
        "decode_mb_s": (statistics.median(b.stream_bytes / b.decode_s / 1e6 for b in batches), "MB/s"),
        "decode_us_p50": (percentile(per_msg, 50), "us"),
        "decode_us_p90": (percentile(per_msg, 90), "us"),
        "decode_us_p99": (percentile(per_msg, 99), "us"),
        "decoded_messages": (len(per_msg), "count"),
        "roundtrip_fail_share": (sum(b.failed for b in batches) / messages, "share"),
    }
    scaled_ms = [us * b.scale / 1e3 for b in batches for us in b.decode_us] or [0.0]
    pipeline_s = [(b.gen_s + b.encode_s + b.decode_s) * b.scale for b in batches]
    out["ops_per_s"] = (statistics.median(b.messages / t for b, t in zip(batches, pipeline_s)), "1/s")
    out["latency_ms_p50"] = (percentile(scaled_ms, 50), "ms")
    out["latency_ms_p90"] = (percentile(scaled_ms, 90), "ms")
    out["cpu_ms_per_op"] = (statistics.median(b.cpu_s * b.scale / b.messages for b in batches) * 1e3, "ms")
    return out


def codec_counts(batches) -> tuple[int, int, int]:
    failed = sum(b.failed for b in batches)
    return sum(b.messages for b in batches), failed, failed


# --- whole runs ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, wrong: bool = False) -> Result:
    """One benchmark run.

    Untraced (``trace=False``): the end-to-end metrics, over ``seconds``.
    Traced: half the time untraced, half traced, then the per-layer
    metrics; the throughput gap between the halves is the tracing overhead.
    ``wrong`` swaps in a wrong expectation, so every check should fail.
    """
    w = WORKLOADS[name]
    rng = Random(seed)
    tracer = tracing.Tracer() if trace else None
    spec, parse_s, resolve_s, scales = setup(w.spec)
    env = {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "link": "loopback" if name == "imap-tcp" else "in process" if w.actor else "none",
        "reference_s": REFERENCE_S,
        "calibration_s": statistics.median(REFERENCE_S / k for k in scales),
        "receive_timeout_ms": RECEIVE_TIMEOUT_MS if w.actor else None,
        "iut": {"myp-inproc": "thread", "imap-tcp": "subprocess"}.get(name),
    }
    if w.actor:
        result = _run_engine(w, spec, rng, seconds, tracer, src, wrong, env)
    else:
        result = _run_codec(w, spec, rng, seconds, tracer, wrong, env)
    if tracer is None:
        setup_s = statistics.median((p + r) * k for p, r, k in zip(parse_s, resolve_s, scales))
        result.metrics = {"setup_s": (setup_s, "s"), **result.metrics}
        return result

    myp = spec if w.spec == "myp" else setup("myp")[0]
    imap = spec if w.spec == "imap_subset" else setup("imap_subset")[0]
    probe_metrics, probe_env, probe_failures = probes.run_probes(myp, imap)
    result.metrics = {
        "syntax.parse_ms": (statistics.median(parse_s) * 1e3, "ms"),
        "resolve.resolve_ms": (statistics.median(resolve_s) * 1e3, "ms"),
        **tracing.layer_metrics(tracer.spans),
        **result.metrics,
        **probe_metrics,
    }
    result.env.update(probe_env)
    result.attempted += 3
    result.failed += probe_failures
    result.hard_failures += probe_failures
    result.tracer = tracer
    return result


def _run_engine(w, spec, rng, seconds, tracer, src, wrong, env) -> Result:
    server = None
    if w.name == "imap-tcp":
        server = ServeProcess("mini-imap", src)
        connect_for = lambda kind, seed: lambda: tcp_iut(server.port)  # noqa: E731
    else:
        connect_for = myp_connector
    try:
        warm = engine_loop(w, spec, connect_for, Random(rng.randrange(2**31)), 0)
        if tracer is None:
            sessions = engine_loop(w, spec, connect_for, rng, seconds, wrong=wrong)
            plain = sessions
        else:
            plain = engine_loop(w, spec, connect_for, rng, seconds / 2, wrong=wrong)
            sessions = engine_loop(w, spec, connect_for, rng, seconds / 2, tracer, wrong)
    finally:
        iut_cpu = server.stop() if server else None
    attempted, failed, hard = engine_counts(plain if tracer is None else plain + sessions)
    result = Result(engine_metrics(sessions), attempted, failed, hard, env)
    if tracer is None:
        return result
    steps = sum(s.steps for s in sessions) or 1
    if iut_cpu is None:
        iut_cpu_per_step = sum(s.iut_cpu for s in sessions) / steps
    else:  # the subprocess served every session of the run
        iut_cpu_per_step = iut_cpu / (sum(s.steps for s in warm + plain + sessions) or 1)
    untraced = engine_metrics(plain)["steps_per_s"][0]
    traced = result.metrics["steps_per_s"][0]
    env["tracing_overhead"] = {"untraced_steps_per_s": untraced, "traced_steps_per_s": traced,
                               "share": 1 - traced / untraced}
    result.metrics = {"iut.cpu_ms_per_step": (iut_cpu_per_step * 1e3, "ms")}
    return result


def _run_codec(w, spec, rng, seconds, tracer, wrong, env) -> Result:
    plain_calls = tracing.CodecCalls()
    codec_loop(w, spec, plain_calls, Random(rng.randrange(2**31)), 0)  # warm-up batch
    if tracer is None:
        batches = codec_loop(w, spec, plain_calls, rng, seconds, wrong)
        return Result(codec_metrics(batches), *codec_counts(batches), env)

    plain = codec_loop(w, spec, plain_calls, rng, seconds / 2, wrong)
    traced = codec_loop(w, spec, tracing.CodecCalls(tracer), rng, seconds / 2, wrong)
    attempted, failed, hard = codec_counts(plain + traced)

    # No channel, LTS, coverage or IUT in a codec loop: a short in-process
    # engine session on the same spec gives those layers a measured figure.
    companion = WORKLOADS["myp-inproc" if w.spec == "myp" else "imap-tcp"]
    connect_for = myp_connector if w.spec == "myp" else imap_thread_connector
    sessions = engine_loop(companion, spec, connect_for, rng, min(2.0, seconds / 4), tracer)
    s_attempted, s_failed, s_hard = engine_counts(sessions)
    steps = sum(s.steps for s in sessions) or 1
    # ops_per_s is scaled for host speed, which drifts between the halves
    untraced = codec_metrics(plain)["ops_per_s"][0]
    traced_ops = codec_metrics(traced)["ops_per_s"][0]
    env["tracing_overhead"] = {"untraced_ops_per_s": untraced, "traced_ops_per_s": traced_ops,
                               "share": 1 - traced_ops / untraced}
    env["companion_session"] = f"{companion.name} layers from {len(sessions)} in-process sessions"
    return Result(
        {"iut.cpu_ms_per_step": (sum(s.iut_cpu for s in sessions) / steps * 1e3, "ms")},
        attempted + s_attempted,
        failed + s_failed,
        hard + s_hard,
        env,
    )
