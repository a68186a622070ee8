"""Seeded random generation of well-formed message values.

The compiled field nodes of :mod:`wirespec.codec` draw the values: fields
in dependency order, so that every dependent constraint (lengths, optional
presence, fixed values) sees the values it needs, and within what the codec
can represent: fixed-count text is drawn at its exact length, terminated
text never contains its terminator, and integers stay inside their codec's
width.  Text and lists whose type sets no bound stay within the caps
that :mod:`wirespec.codec` fixes.  A :class:`Generator` holds what the
draws share: the rng.  Pattern samplers are built once per process, not per
generator (see :func:`wirespec.patterns.language`).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .codec import message_plan
from .resolve import ResolvedSpec
from .values import RecordVal


@dataclass
class GenConfig:
    seed: int = 0


class Generator:
    def __init__(self, spec: ResolvedSpec, cfg: GenConfig | None = None, rng: Random | None = None):
        self.spec = spec
        self.rng = rng if rng is not None else Random((cfg or GenConfig()).seed)

    def message(self, msg_type: str) -> RecordVal:
        plan = message_plan(self.spec, msg_type)
        return plan.generate(self, {}, msg_type)
