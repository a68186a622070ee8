"""Command line entry point.

Thin bindings only: every subcommand parses arguments and calls the
library, so behavior is identical through the API and the CLI.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from . import channel as chan
from .codec import Classified, InvalidFormat, decode_message, encode_message, message_plan
from .engine import (
    CHANNEL_ERROR_EXIT,
    EngineConfig,
    run_test,
    selfplay,
)
from .errors import ChannelError, WirespecError
from .generate import GenConfig, Generator
from .iuts.miniimap import run_mini_imap
from .iuts.myp import FAULT_FORMAT, FAULT_TRACE, IutBehavior, run_myp_client, run_myp_server
from .report import render
from .resolve import ResolvedSpec, load_spec, resolve
from .syntax import parse_spec
from .values import format_value, parse_value_text


def bundled_spec_path(name: str):
    return resources.files("wirespec.specs").joinpath(name + ".wspec")


def _load(path: str) -> ResolvedSpec:
    if path.startswith("bundled:"):
        return resolve(parse_spec(bundled_spec_path(path.split(":", 1)[1]).read_text()))
    return load_spec(path)


# --- subcommands -----------------------------------------------------------------

def cmd_check(args) -> int:
    spec = _load(args.spec)
    print(f"module {spec.name}: {len(spec.message_types)} message types, "
          f"{len(spec.records) - len(spec.message_types)} records, "
          f"{len(spec.enums)} enums, {len(spec.actors)} actors")
    print("message types: " + ", ".join(spec.message_types))
    for name, record in spec.records.items():
        order = ", ".join(f.name for f in record.fields)
        kind = "message" if record.is_message else "record"
        params = f"({', '.join(record.params)})" if record.params else ""
        print(f"  {kind} {name}{params}: field order [{order}]")
    for name, enum in spec.enums.items():
        print(f"  enum {name}: {', '.join(enum.constants)}")
    for name, lts in spec.actors.items():
        anon = len(lts.states) - len(lts.named_states) - 1
        print(
            f"  actor {name}: {len(lts.named_states)} states "
            f"(+{anon} anonymous), {len(lts.edges)} edges, initial {lts.initial}"
        )
    return 0


def cmd_graph(args) -> int:
    spec = _load(args.spec)
    names = [args.actor] if args.actor else list(spec.actors)
    for name in names:
        print(spec.actor(name).dump())
    return 0


def cmd_gen(args) -> int:
    spec = _load(args.spec)
    gen = Generator(spec, GenConfig(seed=args.seed))
    value = gen.message(args.message)
    print(encode_message(args.message, value, spec).hex())
    if args.show_value:
        print(format_value(value), file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    spec = _load(args.spec)
    if args.value is not None:
        value = message_plan(spec, args.message).retype(parse_value_text(args.value))
    else:
        value = Generator(spec, GenConfig(seed=args.seed)).message(args.message)
    print(encode_message(args.message, value, spec).hex())
    return 0


def cmd_decode(args) -> int:
    spec = _load(args.spec)
    candidates = args.types.split(",") if args.types else list(spec.message_types)
    try:
        buf = bytes.fromhex(args.hex)
    except ValueError as e:
        raise WirespecError(f"bad hex input: {e}") from None
    outcome = decode_message(buf, candidates, spec, report_ambiguity=args.verbose)
    if isinstance(outcome, Classified):
        print(f"{outcome.msg_type} {format_value(outcome.value)}")
        if outcome.consumed != len(buf):
            print(f"({len(buf) - outcome.consumed} trailing bytes)", file=sys.stderr)
        if args.verbose and outcome.also_matched:
            print(
                "also matched: " + ", ".join(outcome.also_matched), file=sys.stderr
            )
        return 0
    if isinstance(outcome, InvalidFormat):
        print("invalid format:", file=sys.stderr)
        for name, reason in outcome.diagnostics.items():
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    print("incomplete message", file=sys.stderr)
    return 1


def _engine_config(args) -> EngineConfig:
    return EngineConfig(
        max_steps=args.max_steps,
        receive_timeout_ms=args.timeout_ms,
        seed=args.seed,
    )


def cmd_test(args) -> int:
    spec = _load(args.spec)
    spec.actor(args.actor)  # before any channel opens
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not (port.isascii() and port.isdigit()):
            raise WirespecError(f"--connect needs host:port, got {args.connect!r}")
    try:
        if args.listen is not None:
            with chan.Listener(args.host, args.listen) as listener:
                print(f"listening on port {listener.port}", file=sys.stderr)
                channel = listener.accept(timeout_ms=args.timeout_ms * 100)
        else:
            channel = chan.connect_tcp(host or "127.0.0.1", int(port))
        with channel:
            report = run_test(spec, args.actor, channel, _engine_config(args))
    except ChannelError as e:
        print(f"channel error: {e}", file=sys.stderr)
        return CHANNEL_ERROR_EXIT
    print(render(report, spec, args.format), end="")
    return report.verdict.exit_code


def cmd_selfplay(args) -> int:
    spec = _load(args.spec)
    try:
        report = selfplay(spec, args.actor_a, args.actor_b, _engine_config(args))
    except ChannelError as e:
        print(f"channel error: {e}", file=sys.stderr)
        return CHANNEL_ERROR_EXIT
    print(render(report, spec, args.format), end="")
    return report.verdict.exit_code


def cmd_serve(args) -> int:
    behaviors = {
        "myp-server": lambda ch: run_myp_server(
            ch,
            IutBehavior("myp-server", "server", args.fault),
            seed=args.seed,
        ),
        "myp-client": lambda ch: run_myp_client(ch, seed=args.seed),
        "mini-imap": lambda ch: run_mini_imap(ch, bug=args.bug),
    }
    target = behaviors[args.iut]
    if args.iut == "myp-client":
        channel = chan.connect_tcp(args.host, args.port)
        with channel:
            target(channel)
        return 0
    with chan.Listener(args.host, args.port) as listener:
        print(f"{args.iut} listening on port {listener.port}", file=sys.stderr, flush=True)
        while True:
            channel = listener.accept()
            with channel:
                target(channel)
            if args.once:
                return 0


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wirespec",
        description="Protocol spec toolchain: check specs, code messages, "
        "run model-based conformance tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("spec", help="spec file path, or bundled:myp / bundled:imap_subset")

    p = sub.add_parser("check", help="parse and resolve a spec, print a summary")
    add_spec(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("graph", help="dump compiled actor transition systems")
    add_spec(p)
    p.add_argument("--actor")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("gen", help="generate a random message, print hex bytes")
    add_spec(p)
    p.add_argument("message")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-value", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("encode", help="encode a message value to hex bytes")
    add_spec(p)
    p.add_argument("message")
    p.add_argument("--value", help="value literal, e.g. \"{ h = { flag = 1, ... } }\"")
    p.add_argument("--seed", type=int, default=0, help="generate when no --value given")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="classify and decode hex bytes")
    add_spec(p)
    p.add_argument("hex")
    p.add_argument("--types", help="comma-separated candidate list (default: all)")
    p.add_argument("--verbose", action="store_true", help="report ambiguous matches")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("test", help="run a conformance test against an IUT")
    add_spec(p)
    p.add_argument("actor")
    p.add_argument("--connect", help="host:port of a listening IUT")
    p.add_argument("--listen", type=int, help="port to await a client-role IUT on")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--max-steps", type=_int_at_least(0), default=100)
    p.add_argument("--timeout-ms", type=_int_at_least(1), default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("selfplay", help="animate two actors against each other")
    add_spec(p)
    p.add_argument("actor_a")
    p.add_argument("actor_b")
    p.add_argument("--max-steps", type=_int_at_least(0), default=100)
    p.add_argument("--timeout-ms", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_selfplay)

    p = sub.add_parser("serve", help="launch a reference IUT")
    p.add_argument("iut", choices=("myp-server", "myp-client", "mini-imap"))
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", choices=(FAULT_FORMAT, FAULT_TRACE))
    p.add_argument("--bug", choices=("select-after-delete-inbox",))
    p.add_argument("--once", action="store_true", help="exit after one connection")
    p.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    if args.command == "test" and bool(args.connect) == (args.listen is not None):
        parser.error("test needs exactly one of --connect or --listen")
    try:
        return args.fn(args)
    except WirespecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return CHANNEL_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
