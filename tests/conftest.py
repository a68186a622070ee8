import os

import pytest
from hypothesis import settings

from wirespec.channel import in_process_pair
from wirespec.cli import bundled_spec_path
from wirespec.engine import EngineConfig, run_test
from wirespec.iuts import start_in_thread
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec

# With HYPOTHESIS_PROFILE=ci (the CI workflow sets it), a failing property
# prints the blob that reproduces it, and no example fails on a slow runner
# for its time alone; local runs keep Hypothesis's defaults.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

# Short receive timeout: the reference IUTs answer in microseconds, and the
# request/response models keep the engine from sending while a reply is due.
FAST_TIMEOUT_MS = 10


@pytest.fixture(scope="session")
def myp_spec():
    return resolve(parse_spec(bundled_spec_path("myp").read_text()))


@pytest.fixture(scope="session")
def imap_spec():
    return resolve(parse_spec(bundled_spec_path("imap_subset").read_text()))


def fast_config(max_steps=100, seed=0, **kwargs):
    kwargs.setdefault("receive_timeout_ms", FAST_TIMEOUT_MS)
    return EngineConfig(max_steps=max_steps, seed=seed, **kwargs)


def run_in_process(spec, actor, iut, cfg, strategy=None):
    """Run the engine against an IUT callable over an in-process pair."""
    engine_end, iut_end = in_process_pair()
    thread = start_in_thread(iut, iut_end)
    try:
        if strategy is None:
            return run_test(spec, actor, engine_end, cfg)
        return run_test(spec, actor, engine_end, cfg, strategy=strategy)
    finally:
        engine_end.close()
        iut_end.close()
        thread.join(timeout=5)


def states_after(lts, trace):
    """Brute-force trace replay: every state reachable from the initial state
    by some path whose tau-erased label sequence equals the trace.

    Deliberately a plain path enumeration over the raw edge list, sharing no
    code with the engine's incremental state-set arithmetic.
    """
    labels = [("quit", None) if d == "quit" else (d, m) for d, m in trace]
    seen = set()
    out = set()
    stack = [(lts.initial, 0)]
    while stack:
        state, i = stack.pop()
        if (state, i) in seen:
            continue
        seen.add((state, i))
        if i == len(labels):
            out.add(state)
        for e in lts.edges:
            if e.src != state:
                continue
            if e.label == ("tau", None):
                stack.append((e.dst, i))
            elif i < len(labels) and e.label == labels[i]:
                stack.append((e.dst, i + 1))
    return frozenset(out)
