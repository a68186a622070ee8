"""Seeded random generation of well-formed message values.

The compiled field nodes of :mod:`wirespec.codec` draw the values: fields
in dependency order, so that every dependent constraint (lengths, optional
presence, fixed values) sees the values it needs, and within what the codec
can represent: fixed-count text is drawn at its exact length, terminated
text never contains its terminator, and integers stay inside their codec's
width.  A :class:`Generator` holds what the draws share: the rng and the
caps.  Pattern samplers are built once per process, not per generator (see
:func:`wirespec.patterns.language`).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .codec import message_plan
from .resolve import ResolvedSpec
from .values import RecordVal


@dataclass
class GenConfig:
    """Caps for otherwise unbounded draws.

    regex_expansion_cap bounds the length of pattern-constrained text when
    the type gives no max_count (so unbounded quantifiers stay finite);
    max_text_len plays the same role for pattern-free text.
    """

    seed: int = 0
    max_text_len: int = 12
    max_list_len: int = 4
    regex_expansion_cap: int = 8


class Generator:
    def __init__(self, spec: ResolvedSpec, cfg: GenConfig | None = None, rng: Random | None = None):
        self.spec = spec
        self.cfg = cfg or GenConfig()
        self.rng = rng if rng is not None else Random(self.cfg.seed)

    def message(self, msg_type: str) -> RecordVal:
        plan = message_plan(self.spec, msg_type)
        return plan.generate(self, {}, msg_type)
