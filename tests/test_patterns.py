"""The sampler's independent oracle is Python's re module: everything the
automaton path produces must fullmatch the translated pattern and avoid
the excluded substrings, and over a two-letter alphabet its counts must
equal a brute-force enumeration filtered through ``re``."""

import re
import sys
import threading
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirespec.errors import UnsatisfiableConstraint
from wirespec.patterns import (
    LanguageSampler,
    PatternError,
    alphabet_for_charset,
    compile_pattern,
)

ASCII = alphabet_for_charset("ascii")


def sample_many(sampler, max_len, n=100, seed=1):
    rng = Random(seed)
    return [sampler.sample(rng, max_len) for _ in range(n)]


def test_alternation_is_exact():
    s = LanguageSampler(compile_pattern("INBOX|NOBOX"), ASCII)
    assert set(sample_many(s, 20)) == {"INBOX", "NOBOX"}


def test_alphanumeric_plus():
    pat = compile_pattern("[0-9a-zA-Z]+")
    s = LanguageSampler(pat, ASCII)
    for text in sample_many(s, 20):
        assert 1 <= len(text) <= 20
        assert re.fullmatch(r"[0-9a-zA-Z]+", text)


def test_identifier_with_exclusions():
    pat = compile_pattern("[!-~]+")
    excl = compile_pattern(" |\\r\\n|\\*")
    s = LanguageSampler(pat, ASCII, excludes=(excl,))
    for text in sample_many(s, 20, 200):
        assert re.fullmatch(r"[!-~]+", text)
        assert " " not in text and "*" not in text and "\r\n" not in text


def test_contradiction_is_unsatisfiable():
    s = LanguageSampler(compile_pattern("a"), "ab", excludes=(compile_pattern("a"),))
    assert s.feasible_lengths(5) == []
    with pytest.raises(UnsatisfiableConstraint):
        s.sample(Random(0), 5)


def test_bit_pattern_unique_member():
    # at length 8, zero-or-more 0s closed by a 1 has exactly one member
    s = LanguageSampler(compile_pattern("\\0*\\1"), "01")
    assert s.sample(Random(3), 8, 8) == "00000001"
    assert s.feasible_lengths(8) == list(range(1, 9))


def test_bit_pattern_optional_allows_empty():
    s = LanguageSampler(compile_pattern("(\\0*\\1)?"), "01")
    assert 0 in s.feasible_lengths(24)
    assert s.sample(Random(0), 24, 0) == ""
    assert s.sample(Random(0), 24, 16) == "0" * 15 + "1"


def test_exact_length_unavailable():
    s = LanguageSampler(compile_pattern("\\0*\\1"), "01")
    with pytest.raises(UnsatisfiableConstraint):
        s.sample(Random(0), 4, 0)
    with pytest.raises(UnsatisfiableConstraint):
        s.sample(Random(0), 4, 5)  # beyond the bound


def test_grown_table_draws_like_a_fresh_one():
    # a table grown for a larger bound gives a smaller one the same draws
    pat, excl = compile_pattern("[!-~]+"), compile_pattern(" |\\r\\n|\\*")
    grown = LanguageSampler(pat, ASCII, (excl,))
    grown.sample(Random(0), 300)
    for cap in (1, 7, 20, 299):
        fresh = LanguageSampler(pat, ASCII, (excl,))
        assert sample_many(grown, cap, 20, seed=cap) == sample_many(fresh, cap, 20, seed=cap)
        assert grown.counts(cap) == fresh.counts(cap)


def test_threads_share_a_growing_table():
    # threads growing one table at once must not lose or duplicate a column
    pat, excl = compile_pattern("[!-~]+"), compile_pattern(" |\\r\\n|\\*")
    shared = LanguageSampler(pat, ASCII, (excl,))
    start = threading.Barrier(6)
    errors = []

    def draw(seed):
        rng = Random(seed)
        try:
            start.wait(timeout=10)
            for cap in range(seed + 1, 200, 6):
                assert len(shared.sample(rng, cap)) <= cap
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert shared.counts(200) == LanguageSampler(pat, ASCII, (excl,)).counts(200)


def test_universal_language():
    s = LanguageSampler(None, "ab")
    assert s.feasible_lengths(3) == [0, 1, 2, 3]
    assert all(set(x) <= {"a", "b"} for x in sample_many(s, 3, 50))


@pytest.mark.parametrize(
    "source,matches,rejects",
    [
        ("INBOX|NOBOX", ["INBOX", "NOBOX"], ["INBO", "XNOBOX", ""]),
        ("[0-9a-zA-Z]+", ["a", "Z9"], ["", "a b", "-"]),
        ("[ -~]*", ["", "hello world!"], ["\n", "a\tb"]),
        ("\\0*\\1", ["1", "001"], ["", "10", "00"]),
        ("a{2,4}", ["aa", "aaaa"], ["a", "aaaaa"]),
        ("a{3}", ["aaa"], ["aa", "aaaa"]),
        ("a{2,}b", ["aab", "aaaab"], ["ab", "aa"]),
        ("(ab)+c?", ["ab", "ababc"], ["abc?" , "ba"]),
        ("[^0-9]+", ["abc", "!"], ["a1", ""]),
        (".", ["x", " "], ["", "xy"]),
    ],
)
def test_fullmatch_against_re_semantics(source, matches, rejects):
    pat = compile_pattern(source)
    for text in matches:
        assert pat.regex.fullmatch(text), (source, text)
    for text in rejects:
        assert not pat.regex.fullmatch(text), (source, text)


def test_search_is_substring_semantics():
    pat = compile_pattern(" |\\r\\n|\\*")
    assert pat.regex.search("a b")
    assert pat.regex.search("x*y")
    assert not pat.regex.search("clean")


def test_sampler_agrees_with_re_on_dialect_corpus():
    corpus = [
        ("[!-~]+", 12),
        ("[0-9a-zA-Z]+", 8),
        ("INBOX|NOBOX", 8),
        ("[ -~]*", 10),
        ("(\\r|x)+", 6),
        ("a?b{1,3}[0-4]*", 9),
        ("\\\\Seen|\\\\Deleted", 16),
    ]
    rng = Random(9)
    for source, cap in corpus:
        pat = compile_pattern(source)
        sampler = LanguageSampler(pat, ASCII)
        pyre = re.compile(pat.regex.pattern)
        for _ in range(40):
            text = sampler.sample(rng, cap)
            assert pyre.fullmatch(text), (source, text)
            assert len(text) <= cap


# random dialect patterns over the alphabet "ab"
DIALECT = st.recursive(
    st.sampled_from(["a", "b", ".", "[ab]", "[^a]"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
        st.tuples(inner, st.sampled_from(["*", "+", "?", "{1,2}"])).map(lambda p: f"({p[0]}){p[1]}"),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(DIALECT, st.lists(DIALECT, max_size=2), st.integers(0, 5))
def test_sampler_counts_agree_with_brute_force(source, exclusions, cap):
    pat = compile_pattern(source)
    excludes = tuple(compile_pattern(e) for e in exclusions)
    accepted = {
        text
        for ln in range(cap + 1)
        for text in map("".join, product("ab", repeat=ln))
        if pat.regex.fullmatch(text) and not any(ex.regex.search(text) for ex in excludes)
    }
    counts = [sum(len(text) == ln for text in accepted) for ln in range(cap + 1)]
    sampler = LanguageSampler(pat, "ab", excludes)
    assert sampler.counts(cap) == counts
    assert sampler.feasible_lengths(cap) == [ln for ln, c in enumerate(counts) if c]
    if accepted:
        assert set(sample_many(sampler, cap, 20)) <= accepted
    else:
        with pytest.raises(UnsatisfiableConstraint):
            sampler.sample(Random(0), cap)


def test_malformed_patterns_raise():
    for bad in ["(a", "a)", "[a", "a{2", "*a", "a{4,2}", "a|*"]:
        with pytest.raises(PatternError):
            compile_pattern(bad)


def randrange_sample(sampler, rng, max_len):
    """The sampler's walk as it was written with ``rng.randrange(total)``."""
    lengths = sampler.feasible_lengths(max_len)
    length = rng.choice(lengths)
    columns = sampler._table(max_len)
    out = []
    state = 0
    for remaining in range(length, 0, -1):
        column = columns[remaining - 1]
        weighted = [(chars, t, len(chars) * column[t]) for chars, t in sampler._rows[state] if column[t]]
        pick = rng.randrange(sum(w for _, _, w in weighted))
        for chars, t, w in weighted:
            if pick < w:
                out.append(chars[pick % len(chars)])
                state = t
                break
            pick -= w
    return "".join(out)


@settings(max_examples=150, deadline=None)
@given(DIALECT, st.lists(DIALECT, max_size=2), st.integers(0, 6), st.integers(0, 2**32))
def test_sampler_draws_what_randrange_drew(source, exclusions, cap, seed):
    sampler = LanguageSampler(
        compile_pattern(source), "ab", tuple(compile_pattern(e) for e in exclusions)
    )
    if not sampler.feasible_lengths(cap):
        return
    drawn, reference = Random(seed), Random(seed)
    for _ in range(10):
        assert sampler.sample(drawn, cap) == randrange_sample(sampler, reference, cap)
    assert drawn.getstate() == reference.getstate()
