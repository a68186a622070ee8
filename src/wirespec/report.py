"""Rendering of test reports.

The machine format is line-oriented `key: value` text with fully
deterministic ordering, so two runs with the same seed diff clean; the
text format adds a little prose around the same numbers.
"""

from __future__ import annotations

from .engine import TestReport
from .lts import format_label
from .resolve import ResolvedSpec


def _percent(hit: int, total: int) -> str:
    if total == 0:
        return "100.0%"
    return f"{100.0 * hit / total:.1f}%"


def render_machine(rep: TestReport, spec: ResolvedSpec) -> str:
    cov = rep.coverage
    lines = [
        f"verdict: {rep.verdict.value}",
        f"detail: {rep.detail}",
        f"actor: {rep.actor}",
        f"seed: {rep.seed}",
        f"steps: {rep.steps}",
    ]
    if rep.offending is not None:
        lines.append(f"offending-bytes: {rep.offending.hex()}")
    lines.append("trace:")
    for i, (direction, msg) in enumerate(rep.trace, 1):
        shown = "quit" if direction == "quit" else f"{direction}{msg}"
        lines.append(f"  {i} {shown}")
    lines.append("transitions:")
    for edge, count in cov.transitions.items():
        lines.append(f"  {edge.src} {format_label(edge.label)} {edge.dst} {count}")
    lines.append("fields:")
    for (rec, fld), count in sorted(cov.fields.items()):
        lines.append(f"  {rec}.{fld} {count}")
    lines.append("optional:")
    for (rec, fld), (present, absent) in sorted(cov.optional.items()):
        lines.append(f"  {rec}.{fld} present {present} absent {absent}")
    lines.append("enums:")
    for (enum, const), count in sorted(cov.enums.items()):
        lines.append(f"  {enum}.{const} {count}")
    lines.append("summary:")
    for name, (hit, total) in cov.summary().items():
        lines.append(f"  {name} {hit}/{total} {_percent(hit, total)}")
    return "\n".join(lines) + "\n"


def render_text(rep: TestReport, spec: ResolvedSpec) -> str:
    cov = rep.coverage
    out = [f"=== {rep.verdict.value} === ({rep.detail})"]
    out.append(f"actor {rep.actor}, seed {rep.seed}, {rep.steps} steps")
    if rep.offending is not None:
        out.append(f"offending bytes: {rep.offending.hex()}")
    shown = [
        "quit" if d == "quit" else f"{d}{m}" for d, m in rep.trace
    ]
    out.append(f"trace ({len(shown)} messages): " + " ".join(shown))
    out.append("")
    out.append("transition coverage:")
    for edge, count in cov.transitions.items():
        marker = " " if count else "✗"
        out.append(f"  {marker} {edge}  ({count} hits)")
    if cov.fields:
        out.append("field coverage:")
        for (rec, fld), count in sorted(cov.fields.items()):
            marker = " " if count else "✗"
            out.append(f"  {marker} {rec}.{fld}  ({count})")
    if cov.optional:
        out.append("optional presence/absence:")
        for (rec, fld), (present, absent) in sorted(cov.optional.items()):
            out.append(f"    {rec}.{fld}: present {present}, absent {absent}")
    if cov.enums:
        out.append("enum constants:")
        for (enum, const), count in sorted(cov.enums.items()):
            marker = " " if count else "✗"
            out.append(f"  {marker} {enum}.{const}  ({count})")
    out.append("summary:")
    for name, (hit, total) in cov.summary().items():
        out.append(f"  {name}: {hit}/{total} = {_percent(hit, total)}")
    return "\n".join(out) + "\n"


def render(rep: TestReport, spec: ResolvedSpec, fmt: str = "text") -> str:
    if fmt == "machine":
        return render_machine(rep, spec)
    return render_text(rep, spec)
