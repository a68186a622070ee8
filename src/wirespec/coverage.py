"""Coverage bookkeeping for test traversals.

Goals are: every transition of the tested actor's LTS, every field of
every message/record type the actor can exchange, the presence AND the
absence of every optional field, and every constant of every referenced
enum.  Each compiled message plan (:func:`wirespec.codec.message_plan`)
lists its field, optional and enum goals, found by the one static walk
that also checks it, and a Coverage reads them, so no walk lives here.  A
field counts as covered once it occurs in some exchanged message; an
absent optional field feeds the separate absence goal.  A message of a
type the actor never exchanges, as the engine may classify for
diagnosis, adds and counts no goals.
"""

from __future__ import annotations

from .codec import message_plan
from .lts import IOLTS
from .resolve import ResolvedSpec
from .values import ABSENT, EnumVal, ListVal, RecordVal


class Coverage:
    def __init__(self, spec: ResolvedSpec, actor: IOLTS):
        self.transitions = {e: 0 for e in actor.edges}
        self.fields = {}
        self.optional = {}  # (type, field) -> [present, absent]
        self.enums = {}
        for msg in actor.message_types():
            facts = message_plan(spec, msg).facts
            for key in facts.fields:
                self.fields.setdefault(key, 0)
            for key in facts.optional:
                self.optional.setdefault(key, [0, 0])
            for key in facts.enums:
                self.enums.setdefault(key, 0)

    # --- recording ------------------------------------------------------------

    def hit_edges(self, edges) -> None:
        for e in edges:
            self.transitions[e] += 1

    def record_message(self, value: RecordVal) -> None:
        for name, v in value.entries:
            key = (value.type_name, name)
            if key not in self.fields:
                return  # a record the actor never exchanges
            if v is ABSENT:
                self.optional[key][1] += 1
                continue
            if key in self.optional:
                self.optional[key][0] += 1
            self.fields[key] += 1
            self._record_value(v)

    def _record_value(self, v) -> None:
        if isinstance(v, RecordVal):
            self.record_message(v)
        elif isinstance(v, ListVal):
            for item in v.items:
                self._record_value(item)
        elif isinstance(v, EnumVal):
            self.enums[(v.enum, v.constant)] += 1

    # --- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for name, table in (
            ("transitions", self.transitions),
            ("fields", self.fields),
            ("enums", self.enums),
        ):
            hit = sum(1 for c in table.values() if c > 0)
            out[name] = (hit, len(table))
        goals = 2 * len(self.optional)
        hit = sum((1 if p > 0 else 0) + (1 if a > 0 else 0) for p, a in self.optional.values())
        out["optional-goals"] = (hit, goals)
        return out

    def uncovered_transitions(self) -> list:
        return [e for e, c in self.transitions.items() if c == 0]
