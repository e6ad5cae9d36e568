"""Tangle words: stacks of slices of basic generators, plus the categorical
operations (composition, disjoint union, transpose, bending).

Words are the universal input form; they are the domain of the evaluation
functor and get converted to planar diagrams once crossings are gone.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction


class Generator(Enum):
    ID = ("id", 1, 1)
    CAP = ("cap", 2, 0)
    CUP = ("cup", 0, 2)
    MULT = ("m", 2, 1)
    COMULT = ("w", 1, 2)
    CROSS = ("x", 2, 2)

    def __init__(self, token, n_in, n_out):
        self.token = token
        self.n_in = n_in
        self.n_out = n_out


_BY_TOKEN = {g.token: g for g in Generator}


class WordError(ValueError):
    """Malformed tangle word (bad arity chain or unparsable text)."""


class TangleWord:
    """Immutable word: slices run from the inputs (top) to the outputs."""

    __slots__ = ("n_in", "n_out", "slices", "width", "_hash")

    def __init__(self, n_in, n_out, slices):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.slices = tuple(tuple(s) for s in slices)
        self._hash = None
        self.validate()

    def validate(self):
        """Check the arity chain and record `width`, the most strands at any
        slice boundary."""
        if self.n_in < 0 or self.n_out < 0:
            raise WordError("negative arity")
        cur = width = self.n_in
        for k, slice_ in enumerate(self.slices):
            need = sum(g.n_in for g in slice_)
            if need != cur:
                raise WordError(f"slice {k}: consumes {need} strands, {cur} available")
            cur = sum(g.n_out for g in slice_)
            if cur > width:
                width = cur
        if cur != self.n_out:
            raise WordError(f"word ends with {cur} strands, declared {self.n_out}")
        if not self.slices and self.n_in != self.n_out:
            raise WordError("empty word must have equal arities")
        self.width = width

    def __eq__(self, other):
        return (isinstance(other, TangleWord) and self.n_in == other.n_in
                and self.n_out == other.n_out and self.slices == other.slices)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n_in, self.n_out, self.slices))
        return self._hash

    def __repr__(self):
        return f"TangleWord({self.format()!r})"

    def format(self):
        parts = [f"tangle {self.n_in} -> {self.n_out}"]
        for s in self.slices:
            parts.append(",".join(g.token for g in s))
        return " / ".join(parts)

    def has_crossing(self):
        return any(g is Generator.CROSS for s in self.slices for g in s)

    def ascii_art(self):
        """Human-oriented rendering, one row of symbols per slice."""
        symbols = {"id": "|", "cap": "^", "cup": "v", "m": "Y", "w": "A", "x": "X"}
        rows = [f"{self.n_in} strands in"]
        for s in self.slices:
            rows.append(" ".join(symbols[g.token] for g in s))
        rows.append(f"{self.n_out} strands out")
        return "\n".join(rows)


def parse_word(text) -> TangleWord:
    """Parse the word DSL.

    Header "tangle n -> m"; slices follow, one per line or '/'-separated,
    generators comma-separated from {id, cap, cup, m, w, x}.  Blank lines
    and '#' comments are ignored; a comment runs to the end of its line and
    may contain '/'.
    """
    pieces = [piece.strip() for line in text.splitlines()
              for piece in line.split("#", 1)[0].split("/") if piece.strip()]
    if not pieces:
        raise WordError("empty input")
    header = pieces[0].split()
    if len(header) != 4 or header[0] != "tangle" or header[2] != "->":
        raise WordError(f"bad header {pieces[0]!r}; expected 'tangle n -> m'")
    try:
        n_in, n_out = int(header[1]), int(header[3])
    except ValueError as exc:
        raise WordError(f"bad arities in header {pieces[0]!r}") from exc
    slices = []
    for lineno, line in enumerate(pieces[1:], start=2):
        gens = []
        for tok in line.split(","):
            tok = tok.strip()
            if not tok:
                continue
            g = _BY_TOKEN.get(tok)
            if g is None:
                raise WordError(f"line {lineno}: unknown generator {tok!r}")
            gens.append(g)
        slices.append(gens)
    try:
        return TangleWord(n_in, n_out, slices)
    except WordError as exc:
        raise WordError(f"arity check failed: {exc}") from exc


def identity_word(n) -> TangleWord:
    return TangleWord(n, n, [[Generator.ID] * n] if n else [])


def cap_word(n=1) -> TangleWord:
    """Nested pairing word [2n] -> [0], innermost caps first."""
    slices = []
    for k in range(n - 1, -1, -1):
        slices.append([Generator.ID] * k + [Generator.CAP] + [Generator.ID] * k)
    return TangleWord(2 * n, 0, slices)


def cup_word(n=1) -> TangleWord:
    slices = []
    for k in range(n):
        slices.append([Generator.ID] * k + [Generator.CUP] + [Generator.ID] * k)
    return TangleWord(0, 2 * n, slices)


def generator_word(gen: Generator) -> TangleWord:
    return TangleWord(gen.n_in, gen.n_out, [[gen]])


def compose_tangles(g2: TangleWord, g1: TangleWord) -> TangleWord:
    """g2 after g1: stack g2's slices below g1's."""
    if g1.n_out != g2.n_in:
        raise WordError(f"cannot compose: {g1.n_out} outputs into {g2.n_in} inputs")
    return TangleWord(g1.n_in, g2.n_out, g1.slices + g2.slices)


def disjoint_union(g1: TangleWord, g2: TangleWord) -> TangleWord:
    """Place g2 to the right of g1, padding the shorter word with identities."""
    k = max(len(g1.slices), len(g2.slices))

    def padded(w):
        out = [list(s) for s in w.slices]
        while len(out) < k:
            out.append([Generator.ID] * w.n_out)
        return out

    slices = [a + b for a, b in zip(padded(g1), padded(g2))]
    return TangleWord(g1.n_in + g2.n_in, g1.n_out + g2.n_out, slices)


def transpose_tangle(w: TangleWord) -> TangleWord:
    """The 180-degree rotation, built by bending both boundaries."""
    n, m = w.n_in, w.n_out
    lower = disjoint_union(cup_word(n), identity_word(m))        # [m] -> [2n+m]
    middle = disjoint_union(identity_word(n),
                            disjoint_union(w, identity_word(m)))  # [2n+m] -> [n+2m]
    upper = disjoint_union(identity_word(n), cap_word(m))         # [n+2m] -> [n]
    return compose_tangles(upper, compose_tangles(middle, lower))


def phi_tangle(w: TangleWord) -> TangleWord:
    """Bend a word [n]->[m] into a word [n+m]->[0]."""
    m = w.n_out
    return compose_tangles(cap_word(m), disjoint_union(w, identity_word(m)))


def psi_tangle(w: TangleWord, n: int, m: int) -> TangleWord:
    """Inverse bend: a word [n+m]->[0] becomes [n]->[m]."""
    if w.n_out != 0 or w.n_in != n + m:
        raise WordError("psi expects a word [n+m] -> [0]")
    return compose_tangles(disjoint_union(w, identity_word(m)),
                           disjoint_union(identity_word(n), cup_word(m)))


class LinComb:
    """Formal rational linear combination over hashable keys.

    Zero coefficients are never stored.  Keys are whatever the caller uses
    to identify diagrams or words canonically.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(k, c)

    def add_term(self, key, coeff):
        # one term per call, not linalg.sparse_sum: coefficients become Fractions here
        c = self.terms.get(key, Fraction(0)) + Fraction(coeff)
        if c:
            self.terms[key] = c
        elif key in self.terms:
            del self.terms[key]

    def add(self, other):
        out = LinComb(self.terms)
        for k, c in other.terms.items():
            out.add_term(k, c)
        return out

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LinComb()
        return LinComb({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __repr__(self):
        inner = " + ".join(f"{c}*{k!r}" for k, c in list(self.terms.items())[:4])
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return f"LinComb({inner}{more})"
