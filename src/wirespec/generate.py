"""Seeded random generation of well-formed message values.

Each message plan of :mod:`wirespec.codec` draws its values in one
generated function, ``generate(rng, env)``: fields in declaration order,
with the values of the parameters and earlier fields in locals, so that
every dependent constraint (lengths, optional presence, fixed values) sees
the values it needs, and within what the codec can represent: fixed-count
text is drawn at its exact length, terminated text never contains its
terminator, and integers stay inside their codec's width.  A field whose
pin the known names fix is a constant, as are records all of whose fields
are, and a range they fix is drawn with literal bounds.  Text and lists
whose type sets no bound stay within the caps that :mod:`wirespec.codec`
fixes.  A :class:`Generator` holds what the draws share: the rng.  Every
draw goes through ``getrandbits`` or ``random`` as ``randint``, ``choice``
and ``randrange`` would make it, so a seed draws the same values.  Pattern
samplers are built once per process, not per generator (see
:func:`wirespec.patterns.language`), and each generated function holds its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .codec import message_plan
from .errors import UnsatisfiableConstraint
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
        """A fresh value of ``msg_type``; a part that no value can satisfy is
        UnsatisfiableConstraint, with its path from ``msg_type``."""
        try:
            return message_plan(self.spec, msg_type).generate(self.rng, {})
        except UnsatisfiableConstraint as e:
            raise UnsatisfiableConstraint(f"{msg_type}{e}") from None
