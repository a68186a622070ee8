"""Input-output labelled transition systems and state-set arithmetic.

Labels are ``('!', M)`` for the actor sending message type M, ``('?', M)``
for receiving it, ``('tau', None)`` for internal steps, and
``('quit', None)`` for closing the connection.  The test engine works with
sets of possible current states, kept closed under tau transitions, and
``check_fit`` explores two such sets with the queues between them.
"""

from __future__ import annotations

from dataclasses import dataclass

QUIT_STATE = "Quit"
QUEUE_BOUND = 4  # sends into a queue this full are not explored: the search stays finite

TAU = ("tau", None)
QUIT = ("quit", None)


def send(msg: str) -> tuple:
    return ("!", msg)


def recv(msg: str) -> tuple:
    return ("?", msg)


def format_states(states) -> str:
    return "{" + ", ".join(sorted(states)) + "}"


def format_label(label: tuple) -> str:
    kind, msg = label
    if kind in ("!", "?"):
        return f"{kind}{msg}"
    return kind


@dataclass(frozen=True)
class Edge:
    src: str
    label: tuple
    dst: str

    def __str__(self) -> str:
        return f"{self.src} -{format_label(self.label)}-> {self.dst}"


@dataclass
class IOLTS:
    name: str
    states: list  # named states first (declaration order), then anonymous, then Quit
    named_states: list
    initial: str
    edges: list

    def __post_init__(self):
        self._out = {s: [] for s in self.states}
        for e in self.edges:
            self._out[e.src].append(e)

    def tau_closure_edges(self, states) -> tuple[frozenset, list]:
        """Least superset closed under tau edges, plus the tau edges used."""
        out = set(states)
        used = []
        stack = list(states)
        while stack:
            s = stack.pop()
            for e in self._out[s]:
                if e.label == TAU:
                    used.append(e)
                    if e.dst not in out:
                        out.add(e.dst)
                        stack.append(e.dst)
        return frozenset(out), used

    def successors_edges(self, states, label) -> tuple[frozenset, list]:
        """Exact one-step image under a label (caller tau-closes), plus the
        edges taken."""
        moved = set()
        used = []
        for s in states:
            for e in self._out[s]:
                if e.label == label:
                    moved.add(e.dst)
                    used.append(e)
        return frozenset(moved), used

    def enabled(self, states, direction: str) -> list:
        """Message types labelling direction ('!' or '?') edges out of the set."""
        out = set()
        for s in states:
            for e in self._out[s]:
                if e.label[0] == direction:
                    out.add(e.label[1])
        return sorted(out)

    def enabled_inputs(self, states) -> list:
        return self.enabled(states, "?")

    def enabled_outputs(self, states) -> list:
        return self.enabled(states, "!")

    def quit_enabled(self, states) -> bool:
        return any(
            e.label == QUIT for s in states for e in self._out[s]
        )

    def message_types(self, direction: str | None = None) -> list:
        """All message types on the edges, optionally restricted by direction."""
        out = []
        for e in self.edges:
            if e.label[0] in ("!", "?") and (direction is None or e.label[0] == direction):
                if e.label[1] not in out:
                    out.append(e.label[1])
        return out

    def dump(self) -> str:
        lines = [f"actor {self.name}: initial {self.initial}"]
        lines.extend(f"  {e}" for e in self.edges)
        return "\n".join(lines)


@dataclass(frozen=True)
class Fit:
    """What ``check_fit`` found; ``problem`` is empty when the actors fit."""

    configurations: int
    bound_reached: bool
    problem: str = ""
    deadlock: bool = False
    trace: tuple = ()  # the shortest run to the problem, as (actor, label text) steps


def check_fit(a: IOLTS, b: IOLTS) -> Fit:
    """Explore, breadth first, every configuration two engines animating ``a``
    and ``b`` reach at any seeds and delays: each side's tau-closed state set
    and FIFO queue of messages in flight to it, and who quit (Brand &
    Zafiropulo, JACM 1983).  A side receives its queue's head at any time; until
    one quits, either sends an enabled output or quits where its model allows."""

    def put(pair: tuple, side: int, value) -> tuple:
        return (value, pair[1]) if side == 0 else (pair[0], value)

    sides = (a, b)
    start = (tuple(x.tau_closure_edges({x.initial})[0] for x in sides), ((), ()), None)
    parent = {start: None}
    frontier = [start]  # grows while it is walked: breadth first
    bound_reached = False
    for config in frontier:
        sets, queues, quitter = config
        moves = []  # (side, label, queues after, quitter after)
        for i, lts in enumerate(sides):
            if i != quitter and queues[i]:
                moves.append((i, ("?", queues[i][0]), put(queues, i, queues[i][1:]), quitter))
            if quitter is None:
                outputs, out = lts.enabled_outputs(sets[i]), queues[1 - i]
                bound_reached |= bool(outputs) and len(out) >= QUEUE_BOUND
                if len(out) < QUEUE_BOUND:
                    moves += [(i, ("!", m), put(queues, 1 - i, out + (m,)), None) for m in outputs]
                if lts.quit_enabled(sets[i]):  # what is in flight to a quitter is dropped
                    moves.append((i, QUIT, put(queues, i, ()), i))
        deadlock = not moves and quitter is None
        problem = (f"deadlock: {a.name} waits in {format_states(sets[0])} and {b.name} waits in "
                   f"{format_states(sets[1])}, no message in flight") if deadlock else ""
        for i, label, queues_after, quits in moves:
            moved = sides[i].tau_closure_edges(sides[i].successors_edges(sets[i], label)[0])[0]
            if not moved:  # only a receive can fail: sends and quits are enabled
                problem = (f"{sides[i].name}: no transition for ?{label[1]} "
                           f"from states {format_states(sets[i])}")
                break
            nxt = (put(sets, i, moved), queues_after, quits)
            if nxt not in parent:
                parent[nxt] = (config, (sides[i].name, format_label(label)))
                frontier.append(nxt)
        if problem:
            trace = []
            while parent[config] is not None:
                config, step = parent[config]
                trace.append(step)
            return Fit(len(parent), bound_reached, problem, deadlock, tuple(reversed(trace)))
    return Fit(len(parent), bound_reached)
