"""Exact sparse linear maps between tensor powers of the algebra's space,
and the evaluation functor sending tangle words to such maps.

A map V^(x)n -> V^(x)m is stored as {(out_index, in_index): Fraction} over
multi-indices; n_in = n_out = 0 encodes a scalar.  All Koszul signs are
produced by exactly two places: the switch generator's matrix and the
graded rule in tensor_product.  Entries are summed in linalg.sparse_sum:
directly by add and each evaluation slice, through linalg.sparse_mul by
compose; tensor_product's entries have distinct keys and need no sum.

Each generator's matrix is defined once, by its *_map function.  evaluate
reads its slice tables off generator_map and applies every generator but
the identity through one table lookup, in one of two directions.  A word
with fewer outputs than inputs pulls its output indices up through the
slices in reverse, with each generator's matrix keyed by output index;
every other word, square ones included, pushes its input indices down with
the matrix keyed by input index.  Both directions run the same kernel, so
each evaluation starts from the identity on the narrower end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .algebra import CrossAlgebra, format_fraction, per_case
from .basis import BudgetError
from .linalg import sparse_mul, sparse_sum
from .tangle import Generator, TangleWord

# Most entries one evaluation may hold.  The starting identity is checked
# against it, and each slice before it is applied, by a bound on what the
# slice's result can hold (see evaluate).  The largest such bound in the
# test suite is 5,764,801 = 7^8, the key space of a slice of a dim7
# [4]->[4] word, and the largest slice result there is 1,959,552 entries;
# the benchmark's bounds stay under 20,000.
MAX_ENTRIES = 8_000_000


class ArityError(ValueError):
    pass


class TensorMap:
    __slots__ = ("algebra", "n_in", "n_out", "entries")

    def __init__(self, algebra, n_in, n_out, entries=None):
        self.algebra = algebra
        self.n_in = n_in
        self.n_out = n_out
        self.entries = {}
        if entries:
            for k, v in entries.items():
                v = Fraction(v)
                if v:
                    self.entries[k] = v

    def __eq__(self, other):
        return (isinstance(other, TensorMap)
                and self.algebra.case == other.algebra.case
                and self.n_in == other.n_in and self.n_out == other.n_out
                and self.entries == other.entries)

    def __hash__(self):
        raise TypeError("TensorMap is not hashable")

    def __repr__(self):
        return (f"TensorMap({self.algebra.case.value}, {self.n_in}->{self.n_out}, "
                f"{len(self.entries)} entries)")

    def is_zero(self):
        return not self.entries

    def scalar_value(self):
        if self.n_in or self.n_out:
            raise ArityError("not a scalar map")
        return self.entries.get(((), ()), Fraction(0))

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return TensorMap(self.algebra, self.n_in, self.n_out)
        return TensorMap(self.algebra, self.n_in, self.n_out,
                         {k: v * c for k, v in self.entries.items()})

    def add(self, other):
        if (self.n_in, self.n_out) != (other.n_in, other.n_out):
            raise ArityError("arity mismatch in add")
        return TensorMap(self.algebra, self.n_in, self.n_out,
                         sparse_sum(chain(self.entries.items(), other.entries.items())))

    def sub(self, other):
        return self.add(other.scale(-1))

    def to_json_obj(self):
        items = sorted(self.entries.items())
        return {
            "case": self.algebra.case.value,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "entries": [{"out": list(o), "in": list(i), "coeff": format_fraction(c)}
                        for (o, i), c in items],
        }


def zero_map(algebra, n_in, n_out):
    return TensorMap(algebra, n_in, n_out)


def scalar_map(algebra, value):
    return TensorMap(algebra, 0, 0, {((), ()): Fraction(value)})


def identity_map(algebra, n):
    d = algebra.dim
    entries = {}
    idx = [()]
    for _ in range(n):
        idx = [t + (i,) for t in idx for i in range(d)]
    for t in idx:
        entries[(t, t)] = Fraction(1)
    return TensorMap(algebra, n, n, entries)


def compose(f: TensorMap, g: TensorMap) -> TensorMap:
    """f after g (first g, then f).  Plain matrix product; no signs."""
    if f.algebra.case != g.algebra.case:
        raise ArityError("algebra mismatch in compose")
    if f.n_in != g.n_out:
        raise ArityError(f"arity mismatch: composing {f.n_in}<-? with ?<-{g.n_out}")
    return TensorMap(f.algebra, g.n_in, f.n_out, sparse_mul(f.entries, g.entries))


def tensor_product(f: TensorMap, g: TensorMap) -> TensorMap:
    """Graded tensor product: (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y).

    The sign is applied per homogeneous entry of g (|g| = parity flip of the
    entry) against the parity of f's input index.  For parity-preserving maps
    (every generator image) the sign is always +1.

    Every entry of a map has the same index lengths, so the keys
    (of + og, if_ + ig) are distinct and each entry is one nonzero product:
    nothing is summed.
    """
    if f.algebra.case != g.algebra.case:
        raise ArityError("algebra mismatch in tensor_product")
    alg = f.algebra
    par = alg.parity
    f_items = [(of, if_, cf, sum(par[i] for i in if_) & 1)
               for (of, if_), cf in f.entries.items()]
    g_items = [(og, ig, cg, (sum(par[i] for i in og) + sum(par[i] for i in ig)) & 1)
               for (og, ig), cg in g.entries.items()]
    entries = {(of + og, if_ + ig): -cf * cg if gp and xpar else cf * cg
               for of, if_, cf, xpar in f_items for og, ig, cg, gp in g_items}
    return TensorMap(alg, f.n_in + g.n_in, f.n_out + g.n_out, entries)


# ---------------------------------------------------------------- pairings

def cap_map(alg) -> TensorMap:
    d = alg.dim
    return TensorMap(alg, 2, 0, {((), (i, j)): alg.gram[i][j]
                                 for i in range(d) for j in range(d)})


def cup_map(alg) -> TensorMap:
    # b^t(1) = sum_i v_i (x) u_i; column i of gram^-1 holds the dual vector v_i
    d = alg.dim
    return TensorMap(alg, 0, 2, {((a, i), ()): alg.gram_inv[a][i]
                                 for i in range(d) for a in range(d)})


def mult_map(alg) -> TensorMap:
    d = alg.dim
    return TensorMap(alg, 2, 1, {((k,), (i, j)): c for i in range(d) for j in range(d)
                                 for k, c in enumerate(alg.cross[i][j])})


def switch_map(alg) -> TensorMap:
    d = alg.dim
    par = alg.parity
    return TensorMap(alg, 2, 2, {((j, i), (i, j)): -1 if par[i] and par[j] else 1
                                 for i in range(d) for j in range(d)})


def _nested(alg, n, pair):
    """n nested copies of a cap or cup `pair`, innermost first, so that any
    grading signs come out of the generic machinery: copy k is
    id_k (x) pair (x) id_k, composed after the earlier copies for a cap and
    before them for a cup."""
    if n < 0:
        raise ArityError("n must be nonnegative")
    acc = scalar_map(alg, 1)
    for k in range(n):
        idk = identity_map(alg, k)
        copy = tensor_product(idk, tensor_product(pair, idk))
        acc = compose(acc, copy) if pair.n_out == 0 else compose(copy, acc)
    return acc


def bn(alg, n: int) -> TensorMap:
    """Nested pairing V^(x)2n -> F, strand i against strand 2n+1-i."""
    return _nested(alg, n, cap_map(alg))


def bnt(alg, n: int) -> TensorMap:
    """The coevaluation F -> V^(x)2n dual to bn."""
    return _nested(alg, n, cup_map(alg))


def transpose(f: TensorMap) -> TensorMap:
    """(id_n (x) b_m) o (id_n (x) f (x) id_m) o (b_n^t (x) id_m)."""
    alg = f.algebra
    n, m = f.n_in, f.n_out
    idn = identity_map(alg, n)
    idm = identity_map(alg, m)
    stage1 = tensor_product(bnt(alg, n), idm)
    stage2 = tensor_product(idn, tensor_product(f, idm))
    stage3 = tensor_product(idn, bn(alg, m))
    return compose(stage3, compose(stage2, stage1))


def comult_map(alg) -> TensorMap:
    return transpose(mult_map(alg))


def phi(f: TensorMap) -> TensorMap:
    """Bend outputs up: Hom(n, m) -> Hom(n+m, 0)."""
    alg = f.algebra
    m = f.n_out
    return compose(bn(alg, m), tensor_product(f, identity_map(alg, m)))


def psi(h: TensorMap, n: int, m: int) -> TensorMap:
    """Inverse bending with an explicit (n, m) split of h's inputs."""
    if h.n_out != 0 or h.n_in != n + m:
        raise ArityError("psi expects a functional on n+m strands")
    alg = h.algebra
    return compose(tensor_product(h, identity_map(alg, m)),
                   tensor_product(identity_map(alg, n), bnt(alg, m)))


# ---------------------------------------------------------------- evaluation

def generator_map(alg, gen: Generator) -> TensorMap:
    if gen is Generator.ID:
        return identity_map(alg, 1)
    if gen is Generator.CAP:
        return cap_map(alg)
    if gen is Generator.CUP:
        return cup_map(alg)
    if gen is Generator.MULT:
        return mult_map(alg)
    if gen is Generator.COMULT:
        return comult_map(alg)
    if gen is Generator.CROSS:
        return switch_map(alg)
    raise ValueError(f"unknown generator {gen!r}")


# Per-case slice tables (push, pull), kept by algebra.per_case.
_TABLES = {}


def _slice_tables(alg):
    """(push, pull), each (tables, fan): tables is {Generator: {index:
    [(index, coeff)]}} regrouped from generator_map, push by input index and
    pull by output index, so each generator's matrix is defined once, and fan
    is {Generator: its longest row}.  ID has no table: the kernel passes its
    index through unchanged, so its fan is 1."""
    push, pull = {}, {}
    for gen in Generator:
        if gen is not Generator.ID:
            by_in = push[gen] = {}
            by_out = pull[gen] = {}
            for (o, i), c in generator_map(alg, gen).entries.items():
                by_in.setdefault(i, []).append((o, c))
                by_out.setdefault(o, []).append((i, c))

    def fan(tables):
        return {Generator.ID: 1, **{g: max(map(len, rows.values()))
                                    for g, rows in tables.items()}}

    return (push, fan(push)), (pull, fan(pull))


def _capped_power(base, exp):
    """base ** exp exactly when it is at most MAX_ENTRIES; otherwise, for
    base >= 2, some number over MAX_ENTRIES, without computing the power."""
    return base ** min(exp, MAX_ENTRIES.bit_length())


def _apply_slice(entries, plan):
    """Apply one slice, given as (width, table) per generator with table
    None for the identity, to entries keyed (moving, fixed): each moving
    index is cut into one key per generator and replaced by that key's row.

    Every generator image is parity-even, so no grading signs appear here
    in either direction; the switch generator's matrix carries its own signs.
    The new entries are summed, and the cancelled ones dropped, by
    linalg.sparse_sum.
    """
    def terms():
        for (moving, fixed), coeff in entries.items():
            # branches: list of (new_moving_prefix, coeff)
            branches = [((), coeff)]
            pos = 0
            for width, table in plan:
                if table is None:
                    x = moving[pos:pos + 1]
                    branches = [(pre + x, c) for pre, c in branches]
                else:
                    row = table.get(moving[pos:pos + width])
                    if row is None:
                        branches = []
                        break
                    branches = [(pre + o, c * w) for pre, c in branches for o, w in row]
                pos += width
            for pre, c in branches:
                yield (pre, fixed), c

    return sparse_sum(terms())


def evaluate(word: TangleWord, alg: CrossAlgebra) -> TensorMap:
    """Evaluate a tangle word to an exact tensor map, slice by slice.

    A word with fewer outputs than inputs is evaluated from its output side:
    output indices are pulled up through the slices in reverse, each
    generator keyed by its outputs.  Every other word pushes its input
    indices down.

    Raises BudgetError, before doing the work, when the starting identity
    would hold more than MAX_ENTRIES entries, or when a slice's result could:
    each entry in yields at most the product of the slice's generators'
    longest table rows (their fan), and the result is keyed by `start` fixed
    and `width` moving indices, so it has at most dim^(start + width)
    entries.  A slice is refused when both bounds are over the budget; the
    second is counted only when the first is.
    """
    word.validate()
    pulled = word.n_out < word.n_in
    start = word.n_out if pulled else word.n_in
    if _capped_power(alg.dim, start) > MAX_ENTRIES:
        raise BudgetError(f"evaluation starts from {alg.dim}^{start} entries, "
                          f"more than the budget of {MAX_ENTRIES}")
    push, pull = per_case(_TABLES, alg, _slice_tables)
    tables, fan = pull if pulled else push
    acc = identity_map(alg, start).entries
    for slice_ in (reversed(word.slices) if pulled else word.slices):
        bound = len(acc)
        for g in slice_:
            bound *= fan[g]
            if bound > MAX_ENTRIES:
                width = sum(gen.n_in if pulled else gen.n_out for gen in slice_)
                if _capped_power(alg.dim, start + width) > MAX_ENTRIES:
                    raise BudgetError(f"an evaluation slice could hold more than "
                                      f"the budget of {MAX_ENTRIES} entries")
                break
        acc = _apply_slice(acc, [(g.n_out if pulled else g.n_in, tables.get(g))
                                 for g in slice_])
    if pulled:
        acc = {(o, i): c for (i, o), c in acc.items()}
    return TensorMap(alg, word.n_in, word.n_out, acc)
