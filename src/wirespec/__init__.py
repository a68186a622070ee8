"""wirespec: declarative protocol specs with bit-level codecs, actor
models, and a model-based conformance test engine."""

from .bits import BitString
from .channel import Channel, connect_tcp, in_process_pair
from .codec import Classified, InvalidFormat, decode_message, encode_message
from .engine import EngineConfig, TestReport, Verdict, run_test
from .generate import GenConfig, Generator
from .resolve import ResolvedSpec, load_spec, resolve
from .syntax import parse_spec

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "Channel",
    "Classified",
    "EngineConfig",
    "GenConfig",
    "Generator",
    "InvalidFormat",
    "ResolvedSpec",
    "TestReport",
    "Verdict",
    "connect_tcp",
    "decode_message",
    "encode_message",
    "in_process_pair",
    "load_spec",
    "parse_spec",
    "resolve",
    "run_test",
]
