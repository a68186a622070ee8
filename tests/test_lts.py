from random import Random

from conftest import states_after

from wirespec.lts import IOLTS, QUIT, TAU, Edge


def build(edges, initial="s0", states=None):
    if states is None:
        states = sorted({e.src for e in edges} | {e.dst for e in edges} | {initial})
    return IOLTS("T", states, states, initial, edges)


def test_tau_closure_identity_without_tau():
    lts = build([Edge("s0", ("!", "A"), "s1")])
    assert lts.tau_closure_edges({"s0"})[0] == frozenset({"s0"})


def test_tau_closure_follows_chain():
    lts = build([Edge("s0", TAU, "s1")])
    assert lts.tau_closure_edges({"s0"})[0] == frozenset({"s0", "s1"})


def test_tau_closure_terminates_on_cycles():
    lts = build([Edge("s0", TAU, "s1"), Edge("s1", TAU, "s0")])
    assert lts.tau_closure_edges({"s0"})[0] == frozenset({"s0", "s1"})


def test_tau_closure_monotone_idempotent_extensive():
    rng = Random(5)
    states = [f"s{i}" for i in range(8)]
    edges = [
        Edge(rng.choice(states), TAU, rng.choice(states)) for _ in range(10)
    ] + [Edge(rng.choice(states), ("!", "M"), rng.choice(states)) for _ in range(5)]
    lts = build(edges, states=states)
    small = frozenset({"s0"})
    big = frozenset({"s0", "s3"})
    c_small, c_big = lts.tau_closure_edges(small)[0], lts.tau_closure_edges(big)[0]
    assert small <= c_small  # extensive
    assert c_small <= c_big  # monotone
    assert lts.tau_closure_edges(c_small)[0] == c_small  # idempotent


def test_successors_exact_image(myp_spec):
    client = myp_spec.actors["Client"]
    server = myp_spec.actors["Server"]
    assert client.successors_edges({"Starting"}, ("!", "Ask"))[0] == frozenset({"Waiting"})
    assert server.successors_edges({"Serving"}, ("?", "Done"))[0] == frozenset({"Serving"})
    assert server.successors_edges(frozenset(), ("?", "Done"))[0] == frozenset()


def test_successors_distributes_over_union(myp_spec):
    client = myp_spec.actors["Client"]
    label = ("!", "Ask")
    u = client.successors_edges({"Starting", "u1"}, label)[0]
    starting, _ = client.successors_edges({"Starting"}, label)
    assert u == starting | client.successors_edges({"u1"}, label)[0]


def test_enabled_inputs(myp_spec):
    server = myp_spec.actors["Server"]
    client = myp_spec.actors["Client"]
    assert server.enabled_inputs({"Serving"}) == ["Ask", "Done"]
    assert client.enabled_inputs({"Starting"}) == []
    assert server.enabled_inputs({"u1"}) == []  # only the pending output


def test_quit_detection(myp_spec):
    client = myp_spec.actors["Client"]
    assert client.quit_enabled({"Starting"})
    assert not client.quit_enabled({"Waiting"})


def test_dump_format(myp_spec):
    dump = myp_spec.actors["Server"].dump()
    assert "Serving -?Ask-> u1" in dump
    assert "u1 -!Data-> Serving" in dump


def test_state_set_invariant_by_exhaustive_traces(myp_spec):
    """Engine-style incremental state sets must agree with brute-force path
    enumeration on every trace up to length 5."""
    for actor in ("Client", "Server"):
        lts = myp_spec.actors[actor]
        labels = [("!", m) for m in lts.message_types("!")]
        labels += [("?", m) for m in lts.message_types("?")]
        labels += [QUIT]

        def explore(trace, S):
            oracle = states_after(lts, trace)
            assert S == oracle, (actor, trace, S, oracle)
            if len(trace) == 5:
                return
            for label in labels:
                moved = lts.successors_edges(S, label)[0]
                if moved:
                    entry = ("quit", None) if label == QUIT else label
                    explore(trace + [entry], lts.tau_closure_edges(moved)[0])

        explore([], lts.tau_closure_edges({lts.initial})[0])
