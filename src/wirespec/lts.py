"""Input-output labelled transition systems and state-set arithmetic.

Labels are ``('!', M)`` for the actor sending message type M, ``('?', M)``
for receiving it, ``('tau', None)`` for internal steps, and
``('quit', None)`` for closing the connection.  The test engine works with
sets of possible current states, kept closed under tau transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

QUIT_STATE = "Quit"

TAU = ("tau", None)
QUIT = ("quit", None)


def send(msg: str) -> tuple:
    return ("!", msg)


def recv(msg: str) -> tuple:
    return ("?", msg)


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
