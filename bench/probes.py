"""Decode-scaling probes: three buffers whose decode cost should be linear.

- the front message of a buffer holding 100 queued 2 KB Data messages;
- a 2 KB Data message that arrives one byte at a time, re-decoded after
  every byte as the engine does;
- a 16 KB IMAP line that never ends with its terminator.

Each probe checks its outcome; a probe whose outcome is wrong counts as a
failed operation of the run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from wirespec.codec import Classified, InvalidFormat, NEED_MORE, decode_message


def data_2kb() -> bytes:
    """A MyP Data message of 2022 bytes: four 500-byte items, no footer."""
    item = (500).to_bytes(4, "big") + bytes(i % 251 for i in range(500))
    return b"\x00" + (4).to_bytes(4, "big") + item * 4 + b"\x00"


def _median_time(fn, repeats: int):
    times, outcome = [], None
    for _ in range(repeats):
        start = perf_counter()
        outcome = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), outcome


def run_probes(myp, imap) -> tuple[dict, dict, int]:
    """Returns (metrics, outcome kinds, failures)."""
    msg = data_2kb()
    failures = 0

    queued = msg * 100
    front_s, out = _median_time(lambda: decode_message(queued, myp.message_types, myp), 9)
    if not (isinstance(out, Classified) and out.msg_type == "Data" and out.consumed == len(msg)):
        failures += 1

    def bytewise():
        buf = b""
        for i in range(len(msg)):
            buf += msg[i : i + 1]
            out = decode_message(buf, myp.message_types, myp)
            if out is not NEED_MORE:
                return out, i + 1
        return None, len(msg)

    bytewise_s, (out, fed) = _median_time(bytewise, 3)
    if not (isinstance(out, Classified) and out.msg_type == "Data" and fed == len(msg)):
        failures += 1

    line = b"* OK " + b"x" * (16 * 1024 - 5)
    unterminated_s, out = _median_time(lambda: decode_message(line, imap.message_types, imap), 3)
    if out is NEED_MORE:
        kind = "NeedMoreBytes"
    elif isinstance(out, InvalidFormat):
        kind = "InvalidFormat"
    else:
        kind = "Classified"
        failures += 1

    metrics = {
        "codec.probe_queued100_front_us": (front_s * 1e6, "us"),
        "codec.probe_bytewise_2kb_ms": (bytewise_s * 1e3, "ms"),
        "codec.probe_unterminated_16kb_ms": (unterminated_s * 1e3, "ms"),
        "codec.probe_unterminated_16kb_rejected": (int(kind == "InvalidFormat"), "count"),
    }
    return metrics, {"probe_unterminated_16kb_outcome": kind}, failures
