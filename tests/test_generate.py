import hashlib
from random import Random

import pytest

from wirespec.codec import Classified, decode_message, encode_message
from wirespec.errors import ConstraintViolation, UnsatisfiableConstraint
from wirespec.generate import GenConfig, Generator
from wirespec import patterns
from wirespec.patterns import language
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec
from wirespec.values import ABSENT, BitsVal, IntVal


def test_ask_has_a_single_possible_value(myp_spec):
    values = {Generator(myp_spec, GenConfig(seed=s)).message("Ask") for s in range(10)}
    (only,) = values
    assert only.get("h").get("flag") == IntVal(1)


def test_dataitem_length_dependency(myp_spec):
    gen = Generator(myp_spec, GenConfig(seed=3))
    for _ in range(80):
        value = gen.message("Data")
        for item in value.get("payload").items:
            n = item.get("n").value
            assert 0 <= n <= 500
            assert item.get("data").bits.length == 8 * n
            assert item.get("padding").bits.length == 8 * ((4 - n % 4) % 4)


def test_optional_follows_guard(myp_spec):
    gen = Generator(myp_spec, GenConfig(seed=1))
    for _ in range(60):
        value = gen.message("Data")
        hasfoot = value.get("hasfoot").value
        assert (value.get("foot") is ABSENT) == (not hasfoot)


def test_both_optional_outcomes_occur(myp_spec):
    gen = Generator(myp_spec, GenConfig(seed=2))
    outcomes = {Generator(myp_spec, GenConfig(seed=s)).message("Data").get("foot") is ABSENT
                for s in range(40)}
    assert outcomes == {True, False}
    del gen


def test_every_generated_value_checks(myp_spec, imap_spec):
    for spec in (myp_spec, imap_spec):
        gen = Generator(spec, GenConfig(seed=7))
        for msg_type in spec.message_types:
            for _ in range(10):
                value = gen.message(msg_type)
                try:  # encode checks each field before it writes it
                    encode_message(msg_type, value, spec)
                    reason = None
                except ConstraintViolation as e:
                    reason = str(e)
                assert reason is None, (msg_type, reason)


def test_determinism_per_seed(imap_spec):
    a = [Generator(imap_spec, GenConfig(seed=9)).message(m) for m in imap_spec.message_types]
    b = [Generator(imap_spec, GenConfig(seed=9)).message(m) for m in imap_spec.message_types]
    assert a == b
    c = [Generator(imap_spec, GenConfig(seed=10)).message(m) for m in imap_spec.message_types]
    assert a != c


def test_generated_messages_decode_back(imap_spec):
    gen = Generator(imap_spec, GenConfig(seed=4))
    for msg_type in imap_spec.message_types:
        value = gen.message(msg_type)
        wire = encode_message(msg_type, value, imap_spec)
        out = decode_message(wire, {msg_type}, imap_spec)
        assert isinstance(out, Classified) and out.value == value


def test_padding_bits_forced_at_multiple_of_four(myp_spec):
    from wirespec.bits import BitString

    # n % 4 == 1 forces 24 padding bits: twenty-three 0s then a 1
    gen = Generator(myp_spec, GenConfig(seed=8))
    seen = False
    for _ in range(120):
        for item in gen.message("Data").get("payload").items:
            if item.get("n").value % 4 == 1:
                assert item.get("padding") == BitsVal(BitString.from_bits("0" * 23 + "1"))
                seen = True
    assert seen


def test_unsatisfiable_pattern_reports_field_path():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "b is Binary(length=0, char8_pattern=/\\0*\\1/) end end"
        )
    )
    with pytest.raises(UnsatisfiableConstraint) as exc:
        Generator(spec, GenConfig(seed=0)).message("X")
    assert "X.b" in str(exc.value)


def test_unsatisfiable_range():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "n is Integer(min=5, max=2) as BigEndian(length=8) end end"
        )
    )
    with pytest.raises(UnsatisfiableConstraint):
        Generator(spec, GenConfig(seed=0)).message("X")


def test_contradictory_patterns():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "t is Text(pattern=/a/, exclude_pattern=/a/) "
            "as TerminatedText(terminator=' ') end end"
        )
    )
    with pytest.raises(UnsatisfiableConstraint):
        Generator(spec, GenConfig(seed=0)).message("X")


def test_terminated_text_never_contains_terminator():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "t is Text(charset='ascii') as TerminatedText(terminator='x') end end"
        )
    )
    gen = Generator(spec, GenConfig(seed=1))
    for _ in range(200):
        assert "x" not in gen.message("X").get("t").text


def test_fixed_count_text_drawn_at_exact_length():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "t is Text(charset='ascii', max_count=6) as FixedCountText(encoding='ascii') end end"
        )
    )
    gen = Generator(spec, GenConfig(seed=1))
    assert all(len(gen.message("X").get("t").text) == 6 for _ in range(30))


def test_shared_rng_interleaves_deterministically(myp_spec):
    rng = Random(123)
    gen = Generator(myp_spec, rng=rng)
    first = [gen.message("Data") for _ in range(3)]
    rng2 = Random(123)
    gen2 = Generator(myp_spec, rng=rng2)
    second = [gen2.message("Data") for _ in range(3)]
    assert first == second


def test_corpus_hash_is_stable(myp_spec, imap_spec):
    """Same seeds, same bytes: every draw, and what decoding makes of each
    message with its last byte replaced by two, is pinned by one digest."""
    digest = hashlib.sha256()
    for spec in (myp_spec, imap_spec):
        for seed in range(30):
            gen = Generator(spec, GenConfig(seed))
            for _ in range(5):
                for msg_type in spec.message_types:
                    wire = encode_message(msg_type, gen.message(msg_type), spec)
                    digest.update(wire)
                    out = decode_message(
                        wire[:-1] + b"\x00\x80", spec.message_types, spec, report_ambiguity=True
                    )
                    digest.update(repr(out).encode())
    assert digest.hexdigest() == "532ca7fc3896028efe636a0d5e69807914c6866a6f2ee81c2d59b7ff673f2f35"


def test_fresh_generator_builds_no_sampler(imap_spec):
    def draw_all():
        gen = Generator(imap_spec, GenConfig(seed=5))
        return [gen.message(m) for m in imap_spec.message_types]

    first = draw_all()
    built = language.cache_info().misses
    assert draw_all() == first
    assert language.cache_info().misses == built


def test_field_bound_cap_determinizes_once(monkeypatch):
    # one automaton and one count table serve every cap that n gives max_count
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "n is Integer(min=1, max=300) as BigEndian(length=16) "
            "t is Text(pattern=/[!-~]+/, exclude_pattern=/ |\\r\\n|\\*/, max_count=n) "
            "as TerminatedText(terminator=' ') end end"
        )
    )
    determinize = patterns._determinize
    calls = []
    monkeypatch.setattr(patterns, "_determinize", lambda *a: calls.append(a) or determinize(*a))
    language.cache_clear()
    gen = Generator(spec, GenConfig(seed=1))
    caps = {gen.message("X").get("n").value for _ in range(300)}
    assert len(caps) > language.cache_info().maxsize  # more caps than the cache has entries
    assert len(calls) == 1
    assert language.cache_info().misses == 1
