"""Regular-expression dialect for field constraints.

Supports concatenation, alternation ``|``, grouping, character classes
with ranges, ``.``, escapes, and the quantifiers ``* + ? {m,n}``.
``pattern=`` constraints are checked with anchored full-match semantics,
``exclude_pattern=`` with substring semantics.  The escapes ``\\0`` and
``\\1`` denote literal bit characters, which is how patterns over Binary
fields (char8_pattern) are written.

Two backends share one parser: checking goes through a translation to
Python's ``re`` module, while generation determinizes the NFAs of a pattern
and its exclusions in one subset construction over the field's alphabet,
and samples accepted strings by counting them per length.  The same
construction tells which exclusions no string of the pattern can contain
(:attr:`LanguageSampler.never_contains`), and :func:`narrowed` translates a
pattern with its character classes cut down to an alphabet, as a ``str``
or a ``bytes`` regex, so one match both checks the characters and the
pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from random import Random
from threading import Lock

from .errors import UnsatisfiableConstraint, WirespecError


class PatternError(WirespecError):
    pass


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    chars: frozenset  # one transition over any of these characters


@dataclass(frozen=True)
class Dot:
    pass


@dataclass(frozen=True)
class Seq:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    options: tuple


@dataclass(frozen=True)
class Star:
    inner: object


@dataclass(frozen=True)
class Empty:
    pass


_SIMPLE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "0": "0", "1": "1"}
_QUANT_SUFFIX = {"*", "+", "?", "{"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> PatternError:
        return PatternError(f"pattern error at offset {self.pos}: {msg} (in /{self.text}/)")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def next(self) -> str:
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of pattern")
        self.pos += 1
        return ch

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def alternation(self):
        options = [self.sequence()]
        while self.peek() == "|":
            self.next()
            options.append(self.sequence())
        return options[0] if len(options) == 1 else Alt(tuple(options))

    def sequence(self):
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self.quantified())
        if not parts:
            return Empty()
        return parts[0] if len(parts) == 1 else Seq(tuple(parts))

    def quantified(self):
        node = self.atom()
        while self.peek() in _QUANT_SUFFIX:
            ch = self.next()
            if ch == "*":
                node = Star(node)
            elif ch == "+":
                node = Seq((node, Star(node)))
            elif ch == "?":
                node = Alt((node, Empty()))
            else:
                node = self.counted(node)
        return node

    def counted(self, node):
        # '{' already consumed: {m}, {m,}, {m,n}
        lo = self.number()
        hi = lo
        if self.peek() == ",":
            self.next()
            hi = None if self.peek() == "}" else self.number()
        if self.next() != "}":
            raise self.error("expected '}'")
        if hi is not None and hi < lo:
            raise self.error(f"bad repeat bounds {{{lo},{hi}}}")
        parts = [node] * lo
        if hi is None:
            parts.append(Star(node))
        else:
            parts.extend(Alt((node, Empty())) for _ in range(hi - lo))
        if not parts:
            return Empty()
        return parts[0] if len(parts) == 1 else Seq(tuple(parts))

    def number(self) -> int:
        digits = ""
        while self.peek() and self.peek().isdigit():
            digits += self.next()
        if not digits:
            raise self.error("expected a number")
        return int(digits)

    def atom(self):
        ch = self.next()
        if ch == "(":
            node = self.alternation()
            if self.next() != ")":
                raise self.error("expected ')'")
            return node
        if ch == ".":
            return Dot()
        if ch == "[":
            return self.char_class()
        if ch == "\\":
            return Lit(frozenset(self.escape()))
        if ch in "*+?{":
            raise self.error(f"quantifier {ch!r} with nothing to repeat")
        if ch in ")]}":
            raise self.error(f"unbalanced {ch!r}")
        return Lit(frozenset(ch))

    def escape(self) -> str:
        ch = self.next()
        return _SIMPLE_ESCAPES.get(ch, ch)

    def char_class(self):
        negated = self.peek() == "^"
        if negated:
            self.next()
        chars = set()
        while self.peek() != "]":
            ch = self.next()
            if ch == "\\":
                ch = self.escape()
            if self.peek() == "-" and self.text[self.pos + 1 : self.pos + 2] not in ("]", ""):
                self.next()
                hi = self.next()
                if hi == "\\":
                    hi = self.escape()
                if ord(hi) < ord(ch):
                    raise self.error(f"reversed range {ch!r}-{hi!r}")
                chars.update(chr(c) for c in range(ord(ch), ord(hi) + 1))
            else:
                chars.add(ch)
        self.next()  # ']'
        if not chars:
            raise self.error("empty character class")
        if negated:
            return _NegClass(frozenset(chars))
        return Lit(frozenset(chars))


@dataclass(frozen=True)
class _NegClass:
    """Any character except these; resolved against the alphabet later."""

    chars: frozenset


# --- translation to Python re -----------------------------------------------

def _py_char(ch: str, in_class: bool) -> str:
    if ch.isalnum() and ord(ch) < 128:
        return ch
    o = ord(ch)
    return f"\\x{o:02x}" if o < 256 else f"\\u{o:04x}"


def _py_ranges(chars) -> str:
    """The inside of a regex class of ``chars``, runs of codes as ranges."""
    codes = sorted(map(ord, chars))
    out, i = [], 0
    while i < len(codes):
        j = i
        while j + 1 < len(codes) and codes[j + 1] == codes[j] + 1:
            j += 1
        low, high = _py_char(chr(codes[i]), True), _py_char(chr(codes[j]), True)
        out.append(low if i == j else f"{low}-{high}")
        i = j + 1
    return "".join(out)


def _py_class(chars) -> str:
    """A regex item that reads one of ``chars``; one that reads nothing
    when there are none."""
    if not chars:
        return "(?!)"
    if len(chars) == 1:
        return _py_char(next(iter(chars)), in_class=False)
    return f"[{_py_ranges(chars)}]"


def _step_chars(node, alphabet: frozenset) -> frozenset:
    """The characters of ``alphabet`` that the one-character step ``node``
    (a Dot, Lit or _NegClass) reads."""
    if isinstance(node, Dot):
        return alphabet
    if isinstance(node, Lit):
        return node.chars & alphabet
    return alphabet - node.chars


def _to_python(node, alphabet: frozenset | None = None) -> str:
    """``node`` as Python ``re`` source; with ``alphabet``, each step reads
    only the characters of it that it reads."""
    if isinstance(node, Empty):
        return ""
    if isinstance(node, (Dot, Lit, _NegClass)) and alphabet is not None:
        return _py_class(_step_chars(node, alphabet))
    if isinstance(node, Dot):
        return "(?s:.)"
    if isinstance(node, Lit):
        return _py_class(node.chars)
    if isinstance(node, _NegClass):
        return f"[^{_py_ranges(node.chars)}]"
    if isinstance(node, Seq):
        return "".join(f"(?:{_to_python(p, alphabet)})" for p in node.parts)
    if isinstance(node, Alt):
        return "|".join(f"(?:{_to_python(o, alphabet)})" for o in node.options)
    if isinstance(node, Star):
        return f"(?:{_to_python(node.inner, alphabet)})*"
    raise PatternError(f"unknown node {node!r}")


class Pattern:
    """A compiled dialect pattern, usable for both matching and sampling."""

    def __init__(self, source: str):
        self.source = source
        self.ast = _Parser(source).parse()
        self.regex = re.compile(_to_python(self.ast))  # what it matches, as a Python ``re`` pattern

    def __repr__(self) -> str:
        return f"/{self.source}/"


@lru_cache(maxsize=512)
def compile_pattern(source: str) -> Pattern:
    return Pattern(source)


@lru_cache(maxsize=256)
def narrowed(pattern: Pattern | None, alphabet: str, binary: bool) -> re.Pattern:
    """The ``re`` pattern of ``pattern`` (of any string when None) whose
    every step reads only characters of ``alphabet``: it fullmatches a
    string exactly when the string's characters are all in the alphabet
    and ``pattern`` fullmatches it, and it finds a match in it exactly where
    ``pattern`` finds one that reads only such characters.  With ``binary``
    it is a ``bytes`` pattern that reads each character as the byte of its
    code, for an alphabet within Latin-1."""
    source = _to_python(Star(Dot()) if pattern is None else pattern.ast, frozenset(alphabet))
    return re.compile(source.encode("latin-1") if binary else source)


def chars_read(pattern: Pattern | None, alphabet: str) -> frozenset:
    """The characters that some step of :func:`narrowed`'s regex of
    ``pattern`` over ``alphabet`` reads: every character its strings hold,
    and perhaps more."""
    alpha, found = frozenset(alphabet), set()
    stack = [Star(Dot()) if pattern is None else pattern.ast]
    while stack:
        node = stack.pop()
        if isinstance(node, (Dot, Lit, _NegClass)):
            found |= _step_chars(node, alpha)
        elif isinstance(node, Seq):
            stack.extend(node.parts)
        elif isinstance(node, Alt):
            stack.extend(node.options)
        elif isinstance(node, Star):
            stack.append(node.inner)
    return frozenset(found)


# --- alphabets ---------------------------------------------------------------

ALPHABETS = {
    "ascii": "".join(chr(c) for c in range(128)),
    "latin-1": "".join(chr(c) for c in range(256)),
    "bits": "01",
}


def alphabet_for_charset(charset: str) -> str:
    try:
        return ALPHABETS[charset]
    except KeyError:
        raise PatternError(f"unknown charset {charset!r}") from None


# --- NFA / DFA construction ---------------------------------------------------

class _Nfa:
    def __init__(self):
        self.edges = []  # state -> list of (frozenset chars, target)
        self.eps = []  # state -> list of targets

    def new_state(self) -> int:
        self.edges.append([])
        self.eps.append([])
        return len(self.edges) - 1

    def add(self, src: int, chars: frozenset, dst: int):
        if chars:
            self.edges[src].append((chars, dst))

    def add_eps(self, src: int, dst: int):
        self.eps[src].append(dst)

    def closure(self, states: frozenset) -> frozenset:
        out = set(states)
        stack = list(states)
        while stack:
            for t in self.eps[stack.pop()]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def move(self, states: frozenset, ch: str) -> frozenset:
        """The closure of the states that ``ch`` leads to from ``states``."""
        moved = frozenset(t for s in states for chars, t in self.edges[s] if ch in chars)
        return self.closure(moved)


def _build_nfa(node, nfa: _Nfa, alphabet: frozenset) -> tuple[int, int]:
    """Thompson construction; returns (entry, exit) states."""
    i, o = nfa.new_state(), nfa.new_state()
    if isinstance(node, Empty):
        nfa.add_eps(i, o)
    elif isinstance(node, (Dot, Lit, _NegClass)):
        nfa.add(i, _step_chars(node, alphabet), o)
    elif isinstance(node, Seq):
        prev = i
        for part in node.parts:
            pi, po = _build_nfa(part, nfa, alphabet)
            nfa.add_eps(prev, pi)
            prev = po
        nfa.add_eps(prev, o)
    elif isinstance(node, Alt):
        for option in node.options:
            pi, po = _build_nfa(option, nfa, alphabet)
            nfa.add_eps(i, pi)
            nfa.add_eps(po, o)
    elif isinstance(node, Star):
        pi, po = _build_nfa(node.inner, nfa, alphabet)
        nfa.add_eps(i, pi)
        nfa.add_eps(po, pi)
        nfa.add_eps(i, o)
        nfa.add_eps(po, o)
    else:
        raise PatternError(f"unknown node {node!r}")
    return i, o


def _nfa_for(pattern: Pattern | None, alphabet: frozenset, substring: bool) -> tuple[_Nfa, int, int]:
    nfa = _Nfa()
    if pattern is None:
        # universal language over the alphabet
        s = nfa.new_state()
        nfa.add(s, alphabet, s)
        return nfa, s, s
    i, o = _build_nfa(pattern.ast, nfa, alphabet)
    if substring:
        # .* pattern .* — accepts anything containing a match
        nfa.add(i, alphabet, i)
        nfa.add(o, alphabet, o)
    return nfa, i, o


def _determinize(machines: list, alphabet: str) -> tuple[list, list]:
    """One subset construction (Rabin & Scott, 1959) over ``(nfa, entry,
    exit)`` machines: the pattern's, then one substring machine per
    exclusion.  A state is a tuple of closures, one per machine.  Returns
    ``(rows, exits)`` with state 0 the start; a row holds one ``(chars,
    successor)`` pair per successor, its chars in alphabet order, and the
    pairs come in order of their first character; ``exits[s]`` tells, per
    machine, whether state ``s`` holds its exit: the pattern accepts the
    strings that lead there, or they contain a match of the exclusion."""
    # Successors are computed once per class: characters that every
    # machine's edge sets treat alike.
    sets = list({chars for nfa, _, _ in machines for edges in nfa.edges for chars, _ in edges})
    classes = {}  # which sets hold a character -> its class number
    class_of = [classes.setdefault(tuple(ch in s for s in sets), len(classes)) for ch in alphabet]
    probes = {c: ch for ch, c in zip(alphabet, class_of)}  # one member of each class

    start = tuple(nfa.closure(frozenset([entry])) for nfa, entry, _ in machines)
    index = {start: 0}
    states = [start]
    rows = []
    for cur in states:  # grows as states are found
        successors = []
        for probe in probes.values():
            nxt = tuple(nfa.move(closure, probe) for (nfa, _, _), closure in zip(machines, cur))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            successors.append(index[nxt])
        row = {}
        for ch, c in zip(alphabet, class_of):
            row.setdefault(successors[c], []).append(ch)
        rows.append([(tuple(chars), t) for t, chars in row.items()])
    exits = [tuple(m[2] in c for m, c in zip(machines, cur)) for cur in states]
    return rows, exits


class LanguageSampler:
    """Uniform-ish sampling from (pattern ∩ no-excluded-substrings ∩ length bound).

    Counts accepted strings per length over the automaton, then draws a
    length uniformly among feasible ones and walks the automaton weighting
    each step by the number of accepted completions.  The count table is
    one column per length, grown to the largest bound asked for, so every
    smaller bound reads the same table.  Beside each column ``ln`` sits a
    flat row of steps, one per state, for a walk with ``ln + 1`` characters
    left: the total weight of the state's successors, its bit length, and
    every successor with its weight, or, where there is only one, that
    successor at once.  Columns and step rows are only ever appended,
    whole and under a lock, and a step row before the column that needs
    it, so threads may share a sampler (see :func:`language`).  The
    feasible lengths of each bound are cached as they are first needed.
    The length and each character are drawn with ``getrandbits`` and
    rejection, the algorithm ``choice`` and ``randrange`` run, so a seeded
    ``Random`` draws what they would have drawn.

    ``never_contains`` holds, per exclusion, whether no string of the
    pattern over the alphabet contains a match of it: whether no state of
    the construction holds both the pattern's exit and the exclusion's.
    The construction reaches a state for every string, so where that holds
    a check of the exclusion after a check of the pattern never fails.
    """

    def __init__(self, pattern: Pattern | None, alphabet: str, excludes: tuple[Pattern, ...] = ()):
        alpha = frozenset(alphabet)
        machines = [_nfa_for(pattern, alpha, False)]
        machines.extend(_nfa_for(ex, alpha, True) for ex in excludes)
        self._rows, exits = _determinize(machines, alphabet)
        self.never_contains = tuple(
            not any(held[0] and held[i] for held in exits) for i in range(1, len(machines))
        )
        # _columns[ln][s]: accepted strings of length ln from state s
        self._columns = [[1 if held[0] and not any(held[1:]) else 0 for held in exits]]
        # _steps[ln][s]: the step from state s with ln + 1 characters left
        self._steps = []
        self._lock = Lock()
        self._feasible = {}  # max_len -> feasible_lengths(max_len)

    def _table(self, max_len: int) -> list:
        """The count columns, holding at least lengths 0..max_len, and the
        step rows of at least 1..max_len characters left."""
        columns = self._columns
        if len(columns) <= max_len:
            with self._lock:
                while len(columns) <= max_len:
                    prev = columns[-1]
                    self._steps.append([_step(prev, row) for row in self._rows])
                    columns.append(
                        [sum(len(chars) * prev[t] for chars, t in row) for row in self._rows]
                    )
        return columns

    def counts(self, max_len: int) -> list[int]:
        """How many accepted strings there are of each length 0..max_len."""
        columns = self._table(max_len)
        return [columns[ln][0] for ln in range(max_len + 1)]

    @cached_property
    def first_chars(self) -> str:
        """The characters that accepted strings of any length start with."""
        live = [bool(n) for n in self._columns[0]]  # states that reach acceptance
        grew = True
        while grew:
            grew = False
            for state, row in enumerate(self._rows):
                if not live[state] and any(live[t] for _, t in row):
                    live[state] = grew = True
        return "".join(ch for chars, t in self._rows[0] if live[t] for ch in chars)

    def feasible_lengths(self, max_len: int) -> list[int]:
        """The lengths 0..max_len that some accepted string has; the list is
        cached, so callers must not change it."""
        lengths = self._feasible.get(max_len)
        if lengths is None:
            lengths = [ln for ln, c in enumerate(self.counts(max_len)) if c]
            lengths = self._feasible.setdefault(max_len, lengths)
        return lengths

    def sample(self, rng: Random, max_len: int, length: int | None = None) -> str:
        """One accepted string of at most ``max_len`` characters, of exactly
        ``length`` when that is given."""
        lengths = self.feasible_lengths(max_len)
        if not lengths:
            raise UnsatisfiableConstraint(
                f"no string of length 0..{max_len} satisfies the constraints"
            )
        getrandbits = rng.getrandbits
        if length is None:
            # choice(lengths), inline
            count = len(lengths)
            bits = count.bit_length()
            pick = getrandbits(bits)
            while pick >= count:
                pick = getrandbits(bits)
            length = lengths[pick]
        elif not 0 <= length <= max_len or self._columns[length][0] == 0:
            raise UnsatisfiableConstraint(f"no accepted string of length {length}")
        steps = self._steps
        out = []
        state = 0
        for left in range(length - 1, -1, -1):
            total, bits, chars, state, weighted = steps[left][state]
            # randrange(total), inline: the same draws from the same state
            pick = getrandbits(bits)
            while pick >= total:
                pick = getrandbits(bits)
            if chars is None:
                for chars, state, w in weighted:
                    if pick < w:
                        break
                    pick -= w
            out.append(chars[pick % len(chars)])
        return "".join(out)


def _step(column: list, row: list) -> tuple:
    """One state's step towards strings whose remainders ``column`` counts:
    ``(total, bits, chars, successor, weighted)``.  ``weighted`` lists
    ``(chars, successor, weight)`` for every successor with a completion,
    ``total`` is the sum of their weights and ``bits`` its bit length.
    Where there is one such successor, its characters and state are also
    ``chars`` and ``successor``, so a walk need not search; else both are
    None.  Nearly every step the bundled specs draw has one successor."""
    weighted = [(chars, t, len(chars) * column[t]) for chars, t in row if column[t]]
    total = sum(w for _, _, w in weighted)
    chars, t = weighted[0][:2] if len(weighted) == 1 else (None, None)
    return total, total.bit_length(), chars, t, weighted


@lru_cache(maxsize=64)
def language(pattern: Pattern | None, alphabet: str, excludes: tuple) -> LanguageSampler:
    """The :class:`LanguageSampler` of one language, built once per process
    whatever length bounds it is asked for, and shared by every generator
    and thread."""
    return LanguageSampler(pattern, alphabet, excludes)
