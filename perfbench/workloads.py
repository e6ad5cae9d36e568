"""The four benchmark workloads.

Each workload has a set-up step (what a user pays once per process), a
seeded list of operations per batch, one library call per operation, and a
correctness check per operation that the runner calls outside the timed
region.  Library functions are always reached through their module
(`rewrite.normalize`, not a bare imported name), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction
from functools import reduce

from tangleweb import algebra, basis, centralizer, oracle, planar, rewrite, tensor
from tangleweb.algebra import CaseTag
from tangleweb.tangle import parse_word

import gen

CASES = ("dim3", "dim7", "kap")
GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

# Literal reference counts, deliberately not computed by basis.riordan:
# invariants of V^(x)k and noncrossing partitions into blocks >= 2 (Riordan)
# for the 3-dimensional cases; invariants and non-elliptic webs for G2.
RIORDAN = (1, 0, 1, 1, 3, 6, 15, 36)
G2_COUNTS = (1, 0, 1, 1, 4, 10)
# (even, odd) dimensions of the derivation algebras: so3, g2, osp(1|2)
DERIVATION_DIMS = {"dim3": (3, 0), "dim7": (14, 0), "kap": (3, 2)}


class Op:
    """One operation: a library call on generated inputs."""

    __slots__ = ("kind", "case", "arg", "check")

    def __init__(self, kind, case, arg, check=True):
        self.kind = kind
        self.case = case
        self.arg = arg
        self.check = check


def _algebras():
    return {c: algebra.build(CaseTag(c)) for c in CASES}


class Workload:
    name = ""
    why = ""
    streaming = True     # batches repeat for the run's seconds; else one batch

    def setup(self):
        raise NotImplementedError

    def batch(self, seed, index, tiny=False):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result, seed) -> bool:
        raise NotImplementedError

    def profile(self):
        return {}


class _WordStream(Workload):
    shape: gen.WordShape
    batch_size = 0
    tiny_batch_size = 4
    check_share = 0.0

    def __init__(self):
        self.inputs = gen.InputProfile()

    def batch(self, seed, index, tiny=False):
        size = self.tiny_batch_size if tiny else self.batch_size
        words = gen.word_batch(self.name, seed, index, size, self.shape)
        pick = gen.batch_rng(self.name + "/check", seed, index)
        ops = []
        for case, word in words:
            self.inputs.add(case, word)
            ops.append(Op(self.kind, case, word,
                          check=tiny or pick.random() < self.check_share))
        return ops

    def profile(self):
        return self.inputs.summary()


class NormalizeStream(_WordStream):
    name = "normalize-stream"
    why = ("random crossing words over all three cases, one normalize each; "
           "rewrite and planar do the work, inputs rarely repeat")
    kind = "normalize"
    shape = gen.WordShape(
        case_weights=(("dim3", 1), ("dim7", 1), ("kap", 1)),
        span_budget={"dim3": 8, "dim7": 6, "kap": 8},
        min_slices=5, max_slices=8, min_span=5, p_cross=0.25,
        min_cross=1, max_cross=2, max_vertices=6)
    batch_size = 200
    check_share = 0.01

    def __init__(self):
        super().__init__()
        self._basis_maps = {}

    def setup(self):
        self.algs = _algebras()
        for alg in self.algs.values():
            rewrite.rules_for(alg)

    def run(self, op):
        return rewrite.normalize(op.arg, self.algs[op.case])

    def check(self, op, result, seed):
        alg = self.algs[op.case]
        want = tensor.evaluate(op.arg, alg)
        got = tensor.zero_map(alg, op.arg.n_in, op.arg.n_out)
        for diag, coeff in result:
            if not basis.is_basis_diagram(diag, alg.case):
                return False
            key = (op.case, diag.canonical_encoding())
            t = self._basis_maps.get(key)
            if t is None:
                t = tensor.evaluate(planar.planar_to_word(diag), alg)
                self._basis_maps[key] = t
            got = got.add(t.scale(coeff))
        return got == want


class EvaluateStream(_WordStream):
    name = "evaluate-stream"
    why = ("random words weighted toward dim7, one tensor evaluation each; "
           "tensor does all the work, rewrite and planar none")
    kind = "evaluate"
    shape = gen.WordShape(
        case_weights=(("dim3", 1), ("dim7", 3), ("kap", 1)),
        span_budget={"dim3": 7, "dim7": 4, "kap": 7},
        min_slices=2, max_slices=10, min_span=3, p_cross=0.2, max_cross=4)
    batch_size = 200
    check_share = 0.02

    def __init__(self):
        super().__init__()
        self._gen_maps = {}

    def setup(self):
        self.algs = _algebras()
        # the first evaluation per case builds the generator lookup tables
        probe = parse_word("tangle 1 -> 2 / w")
        for alg in self.algs.values():
            tensor.evaluate(probe, alg)

    def run(self, op):
        return tensor.evaluate(op.arg, self.algs[op.case])

    def check(self, op, result, seed):
        # independent path: each slice as a tensor product of generator
        # maps, composed onto the accumulated map
        alg = self.algs[op.case]
        word = op.arg
        acc = tensor.identity_map(alg, word.n_in)
        for slice_ in word.slices:
            maps = [self._generator_map(alg, g) for g in slice_]
            step = reduce(tensor.tensor_product, maps) if maps else tensor.scalar_map(alg, 1)
            acc = tensor.compose(step, acc)
        return (result.n_in, result.n_out) == (word.n_in, word.n_out) \
            and result.entries == acc.entries

    def _generator_map(self, alg, gen_):
        key = (alg.case, gen_)
        t = self._gen_maps.get(key)
        if t is None:
            t = self._gen_maps[key] = tensor.generator_map(alg, gen_)
        return t


def _table_json(table):
    return json.loads(json.dumps(table.to_json_obj()))


class CentralizerTables(Workload):
    name = "centralizer-tables"
    why = ("the paper's centralizer structure tables; thousands of small "
           "stacked products whose intermediate diagrams repeat heavily")
    streaming = False
    # one operation per case: its tables for n = 1 .. max_n.  A single small
    # table takes tens of milliseconds, too short to time steadily on a
    # shared two-core machine; a case's whole set takes seconds.
    max_n = {"dim3": 4, "kap": 4, "dim7": 3}
    tiny_max_n = {"dim3": 2, "kap": 2, "dim7": 2}
    # expected basis sizes: Riordan(2n) for the 3-dimensional cases, webs for G2
    basis_size = {("dim3", 4): 91, ("kap", 4): 91, ("dim7", 3): 35}
    assoc_samples = 3000

    def setup(self):
        self.algs = _algebras()
        for alg in self.algs.values():
            rewrite.rules_for(alg)

    def batch(self, seed, index, tiny=False):
        max_n = self.tiny_max_n if tiny else self.max_n
        ops = [Op("tables", c, max_n[c]) for c in CASES]
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def run(self, op):
        alg = self.algs[op.case]
        return [centralizer.structure_constants(alg, n) for n in range(1, op.arg + 1)]

    def check(self, op, tables, seed):
        return len(tables) == op.arg and all(
            self._check_table(op.case, n, table, seed)
            for n, table in enumerate(tables, start=1))

    def _check_table(self, case, n, table, seed):
        golden = GOLDEN / f"centralizer_{case}_n{n}.json"
        if golden.exists():
            return _table_json(table) == json.loads(golden.read_text())
        want = self.basis_size.get((case, n))
        if want is not None and len(table.basis) != want:
            return False
        return table.check_identity() and _sampled_associative(
            table, random.Random(f"{self.name}/assoc:{seed}:{case}:{n}"),
            self.assoc_samples)

    def profile(self):
        return {"tables_n_max": self.max_n}


def _sampled_associative(table, rng, samples):
    """(e_i e_j) e_k == e_i (e_j e_k) on seeded random triples."""
    nb = len(table.basis)
    t = table.table
    for _ in range(samples):
        i, j, k = rng.randrange(nb), rng.randrange(nb), rng.randrange(nb)
        left, right = {}, {}
        for m, c in t[(i, j)].items():
            for p, c2 in t[(m, k)].items():
                left[p] = left.get(p, Fraction(0)) + c * c2
        for m, c in t[(j, k)].items():
            for p, c2 in t[(i, m)].items():
                right[p] = right.get(p, Fraction(0)) + c * c2
        if {a: b for a, b in left.items() if b} != {a: b for a, b in right.items() if b}:
            return False
    return True


class CertifyDims(Workload):
    name = "certify-dims"
    why = ("oracle derivation algebras and exact invariant dimensions next to "
           "basis counts; linalg, oracle and web search do the work")
    streaming = False
    # one operation per case, timed as a whole for the reason given in
    # CentralizerTables: the derivation algebra from scratch, then the
    # invariant dimension and the basis count for k = 0 .. max_k
    max_k = {"dim3": 7, "kap": 7, "dim7": 5}
    tiny_max_k = {"dim3": 4, "kap": 4, "dim7": 3}

    def setup(self):
        self.algs = _algebras()
        for alg in self.algs.values():
            # the first invariant_dim per case searches for Lie generators
            oracle.invariant_dim(alg, 1, der=oracle.derivations(alg))

    def batch(self, seed, index, tiny=False):
        max_k = self.tiny_max_k if tiny else self.max_k
        ops = [Op("certify", c, max_k[c]) for c in CASES]
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def run(self, op):
        alg = self.algs[op.case]
        der = oracle.derivations(alg)
        counts = []
        for k in range(op.arg + 1):
            dim = oracle.invariant_dim(alg, k, der=der)
            if op.case == "dim7":
                count = len(basis.enumerate_webs(k, 0))
            else:
                count = len(basis.enumerate_catalan(k, 0))
            counts.append((dim, count))
        return (der.even_dim(), der.odd_dim()), counts

    def check(self, op, result, seed):
        der_dims, counts = result
        want = (G2_COUNTS if op.case == "dim7" else RIORDAN)[:op.arg + 1]
        return der_dims == DERIVATION_DIMS[op.case] and counts == [(w, w) for w in want]

    def profile(self):
        return {"certify_k_max": self.max_k}


WORKLOADS = {w.name: w for w in (NormalizeStream, EvaluateStream,
                                 CentralizerTables, CertifyDims)}
