"""Seeded input generation for the benchmark workloads.

Everything here is deterministic in its seed: the same (stream, seed, batch)
triple always yields the same words.  Words are built slice by slice over
the alphabet id, cap, cup, m, w, x and then filtered by a per-case width
budget, because the cost of exact evaluation grows as dim ** width.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from tangleweb.tangle import Generator, TangleWord


@dataclass(frozen=True)
class WordShape:
    """Parameters of one stream of random words.

    case_weights: relative frequency of each case ("dim3", "dim7", "kap").
    span_budget: per case, the largest allowed n_in + widest slice; the
        number of tensor entries an evaluation carries grows as dim ** span.
    min_slices, max_slices: word length is drawn uniformly from this range.
    min_span: words narrower than this are redrawn, so that few inputs are
        small enough to repeat by chance.
    p_cross: chance that a slice position with two free strands may become
        a crossing; min_cross and max_cross bound the crossings per word.
        Each crossing multiplies the terms a normalization expands by 3 or
        4; crossing-free words are mostly small planar diagrams that recur.
    max_vertices caps the m and w generators per word; with the crossing
        cap it bounds the rewriting work of one word, which keeps the
        slowest operations of a run alike from seed to seed.
    """

    case_weights: tuple
    span_budget: dict
    max_slices: int
    p_cross: float
    max_cross: int
    min_slices: int = 1
    min_span: int = 0
    min_cross: int = 0
    max_vertices: int = 99


MAX_IN = 3       # most input strands a word may have
P_CUP = 0.2      # chance a slice position may open a cup where width allows


def word_span(word: TangleWord) -> int:
    """n_in plus the widest slice boundary: the exponent of evaluation cost."""
    widths = [word.n_in] + [sum(g.n_out for g in s) for s in word.slices]
    return word.n_in + max(widths)


def crossing_count(word: TangleWord) -> int:
    return sum(1 for s in word.slices for g in s if g is Generator.CROSS)


def vertex_count(word: TangleWord) -> int:
    return sum(1 for s in word.slices for g in s
               if g is Generator.MULT or g is Generator.COMULT)


def _draw_word(rng, width, shape):
    n_in = rng.randint(0, min(MAX_IN, width))
    slices = []
    cur = n_in
    for _ in range(rng.randint(shape.min_slices, shape.max_slices)):
        row, left, width_out = [], cur, 0
        while left > 0:
            opts = [Generator.ID, Generator.COMULT]
            if left >= 2:
                opts += [Generator.CAP, Generator.MULT]
                if rng.random() < shape.p_cross:
                    opts += [Generator.CROSS, Generator.CROSS]
            if width_out + left + 2 <= width and rng.random() < P_CUP:
                opts.append(Generator.CUP)
            gen = rng.choice(opts)
            if gen.n_out + width_out + (left - gen.n_in) > width:
                gen = Generator.ID
            row.append(gen)
            left -= gen.n_in
            width_out += gen.n_out
        if not row and width_out + 2 <= width and rng.random() < 0.5:
            row = [Generator.CUP]
            width_out = 2
        slices.append(row)
        cur = width_out
    return TangleWord(n_in, cur, slices)


def random_word(rng, case, shape: WordShape) -> TangleWord:
    """Draw words until one fits the case's span range and crossing cap."""
    budget = shape.span_budget[case]
    while True:
        w = _draw_word(rng, budget, shape)
        if shape.min_span <= word_span(w) <= budget \
                and shape.min_cross <= crossing_count(w) <= shape.max_cross \
                and vertex_count(w) <= shape.max_vertices:
            return w


def batch_rng(stream: str, seed: int, batch: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{stream}:{seed}:{batch}")


def word_batch(stream, seed, batch, size, shape: WordShape):
    """The batch-th slice of a seeded stream: a list of (case, word)."""
    rng = batch_rng(stream, seed, batch)
    cases = [c for c, _ in shape.case_weights]
    weights = [w for _, w in shape.case_weights]
    out = []
    for _ in range(size):
        case = rng.choices(cases, weights)[0]
        out.append((case, random_word(rng, case, shape)))
    return out


def word_key(case, word: TangleWord):
    """Identity of a word input for repeat counting."""
    return (case, word.n_in, word.n_out, word.slices)


class InputProfile:
    """Running summary of the input properties that set the cost of a run."""

    def __init__(self):
        self.cases = Counter()
        self.words = 0
        self.generators = 0
        self.crossings = 0
        self.words_with_crossing = 0
        self.length = Counter()
        self.boundary = Counter()
        self.span = Counter()
        self.seen = set()
        self.repeats = 0

    def add(self, case, word: TangleWord):
        self.words += 1
        self.cases[case] += 1
        gens = [g for s in word.slices for g in s]
        x = sum(1 for g in gens if g is Generator.CROSS)
        self.generators += len(gens)
        self.crossings += x
        self.words_with_crossing += x > 0
        self.length[len(word.slices)] += 1
        self.boundary[word.n_in + word.n_out] += 1
        self.span[word_span(word)] += 1
        key = word_key(case, word)
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)

    def summary(self):
        n = max(self.words, 1)
        return {
            "words": self.words,
            "case_mix": dict(sorted(self.cases.items())),
            "crossing_share_of_generators": round(self.crossings / max(self.generators, 1), 4),
            "words_with_crossing_share": round(self.words_with_crossing / n, 4),
            "word_length_mean": round(sum(k * v for k, v in self.length.items()) / n, 3),
            "word_length_hist": dict(sorted(self.length.items())),
            "boundary_width_hist": dict(sorted(self.boundary.items())),
            "span_hist": dict(sorted(self.span.items())),
            "repeat_share": round(self.repeats / n, 4),
        }
