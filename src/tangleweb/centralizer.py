"""Centralizer algebras in the diagram basis: structure constants by
stacking and normalizing, the Brauer-algebra comparison for the
3-dimensional cases, and the faithfulness checks of the matrix model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain

from .algebra import CaseTag, CrossAlgebra, format_fraction
from .basis import BudgetError, basis_diagrams
from .linalg import clear_denominators, sparse_rank, sparse_sum
from .oracle import DerivationAlgebra, derivations, equivariance_check
from .planar import compose_planar, join_ports, planar_to_word, word_to_planar
from .rewrite import eval_diagram, normalize, normalize_diagrams, rules_for
from .tangle import Generator, TangleWord, compose_tangles, identity_word
from .tensor import compose


class StructureTable:
    """Multiplication table basis_i o basis_j = sum_k t[i][j][k] basis_k."""

    __slots__ = ("case", "n", "basis", "index", "table")

    def __init__(self, case, n, basis, table):
        self.case = case
        self.n = n
        self.basis = basis
        self.index = {d.canonical_encoding(): k for k, d in enumerate(basis)}
        self.table = table      # dict (i, j) -> dict k -> Fraction

    def identity_index(self):
        k = self.index.get(word_to_planar(identity_word(self.n)).canonical_encoding())
        if k is None:
            raise ValueError("identity diagram not in basis")
        return k

    def check_identity(self):
        e = self.identity_index()
        for i in range(len(self.basis)):
            if self.table[(e, i)] != {i: Fraction(1)}:
                return False
            if self.table[(i, e)] != {i: Fraction(1)}:
                return False
        return True

    def generator_rows(self):
        """The rows `_closure` yields as generators, in the order yielded:
        the rows `structure_constants` multiplies directly."""
        return [i for i, how in _closure(self, self.table) if how is None]

    def check_associative(self):
        """(e_i e_j) e_k == e_i (e_j e_k) for every basis triple; exact.

        The walk runs over ints: the table is scaled once to integer cells
        M = s t (`_numerators`, one positive s for every cell), and
        both sides of every triple scale by s^2, so they agree on M exactly
        when they agree on t.  This holds for any table, with any
        denominators.

        Only the triples (g, j, k) with g a generator of `_closure` are
        walked, all k of one (g, j) in one sum per side.  Suppose
        (x y) z = x (y z) for every generator x and all basis y, z, and
        let e_i = c^-1 (e_a e_s - sum_m rest[m] e_m) come
        from a cell e_a e_s = c e_i + sum_m rest[m] e_m of the table, with
        a, s and every row of rest reached before i.  By induction the
        hypothesis holds for a, s and the rows of rest.  For all y and z (by
        bilinearity they may be any vectors), four uses of it on a and s
        give
            ((e_a e_s) y) z = (e_a (e_s y)) z = e_a ((e_s y) z)
                            = e_a (e_s (y z)) = (e_a e_s) (y z),
        and both sides are linear in the first factor, so it holds for the
        combination e_i as well, and so for every row.  The generators are
        read off this table, not off how it was built, so the verdict is
        the full triple walk's for any table.  They are read off t
        (`generator_rows`); scaling changes no cell's terms, so they are M's
        as well.
        """
        _, t = _numerators(self.table)
        cols = range(len(self.basis))
        for g in self.generator_rows():
            for j in cols:
                gj = t[(g, j)]
                if (_expand((k, c, t[(l, k)]) for k in cols for l, c in gj.items())
                        != _expand((k, c, t[(g, l)]) for k in cols
                                   for l, c in t[(j, k)].items())):
                    return False
        return True

    def to_json_obj(self):
        return {
            "case": self.case.value,
            "n": self.n,
            "basis_size": len(self.basis),
            "basis": [d.canonical_encoding().decode() for d in self.basis],
            "products": [{"i": i, "j": j,
                          "coeffs": {str(k): format_fraction(c)
                                     for k, c in sorted(row.items())}}
                         for (i, j), row in sorted(self.table.items())],
        }


def _closure(st, table):
    """Reach every row of a structure table from as few rows as possible.

    Yields (i, how) for each basis index of the StructureTable `st` once,
    reading the cells from `table` (keyed (i, j), like st.table; its
    values may be Fractions or integer numerators).  The local rows
    id_j (x) x (x) id_(n-2-j), x in basis_diagrams(case, 2, 2), come
    first, each x's with j from n-2 down to 0 (`_local_rows`), then the
    rest by (vertex count, index).  Visiting j in that order rather than
    from 0 up derives two more local rows at n = 4 in dim3 and kap, 5 of
    91 rows direct instead of 7, and at n = 5 6 instead of 8 (dim3) and 9
    (kap); dim7 n = 3 stays at 4 of 35.  `how`
    is (a, s, c, rest) when the cell table[(a, s)] is {i: c} with c != 0
    plus `rest`, rows a and s and every row of rest were yielded before i;
    then e_i = c^-1 (e_a e_s - sum_m rest[m] e_m).  Such a row is taken as
    soon as one exists, first found first taken, through the cell with
    the fewest terms found by then; otherwise the next row in order that
    is not reached yet is yielded with `how` None, a generator.  The
    single-term cells are the rest = {} case.

    Each cell is scanned once, when its second factor row is yielded;
    a cell with more than one term not reached yet waits, counted down
    as its rows come, under each of those rows.  Only cells of rows
    already yielded are read, so a builder may fill row i between yields.
    """
    basis = st.basis
    order = _local_rows(st)
    order += sorted(range(len(basis)), key=lambda i: (basis[i].vertex_count(), i))
    reached, found = {}, {}     # ordered sets of rows; row -> cell key
    missing, waiting = {}, {}   # cell key -> terms not reached; row -> cell keys
    done = reached.keys()

    def offer(key):
        # the one term of cell `key` not reached yet
        cell = table[key]
        m = next(m for m, v in cell.items() if v and m not in reached)
        if m not in found or len(cell) < len(table[found[m]]):
            found[m] = key

    for nxt in order:
        while True:
            if found:
                i = next(iter(found))
                a, s = key = found.pop(i)
                rest = dict(table[key])
                how = (a, s, rest.pop(i), rest)
            elif nxt not in reached:
                i, how = nxt, None
            else:
                break
            yield i, how
            reached[i] = None
            for key in waiting.pop(i, ()):
                missing[key] -= 1
                if missing[key] == 1:
                    offer(key)
            for r in reached:
                for key in ((r, i), (i, r)) if r != i else ((i, i),):
                    cell = table[key]
                    if cell.keys() <= done:
                        continue
                    todo = [m for m, v in cell.items() if v and m not in reached]
                    if len(todo) == 1:
                        offer(key)
                    elif todo:
                        missing[key] = len(todo)
                        for m in todo:
                            waiting.setdefault(m, []).append(key)


def _local_rows(st):
    """The indices of the rows id_j (x) x (x) id_(n-2-j) of `st`, for x in
    basis_diagrams(case, 2, 2) and then j = n-2 down to 0, each once: every
    [2] -> [2] basis word padded with ID strands, traced and looked up by
    its canonical encoding.  Descending j was measured to leave `_closure`
    fewer direct rows than ascending j (see there)."""
    n, rows = st.n, {}
    for x in basis_diagrams(st.case, 2, 2):
        slices = planar_to_word(x).slices
        for j in range(n - 2, -1, -1):
            word = TangleWord(n, n, [[Generator.ID] * j + list(sl) + [Generator.ID] * (n - 2 - j)
                                     for sl in slices])
            rows[st.index[word_to_planar(word).canonical_encoding()]] = None
    return list(rows)


def _expand(terms):
    """sum_l c_l * cell_l over the (k_l, c_l, cell_l) triples of `terms`,
    each cell a sparse dict placed in column k_l: the entry m of cell_l
    lands on the key (k_l, m).  Zero entries dropped; one linalg.sparse_sum
    call."""
    return sparse_sum(((k, m), c * v) for k, c, cell in terms for m, v in cell.items())


def _numerators(cells, den=1):
    """(d, num): a positive int d and integer cells num, num[key] / d ==
    cells[key] / den for every key, with no common factor left in d and
    the numerators.  `den` is a nonzero int.

    All cells go through one clear_denominators row (`_split`).
    """
    return _split({(key, m): v for key, cell in cells.items() for m, v in cell.items()},
                  den, cells)


def _split(flat, den, keys):
    """`_numerators` of the cells {m: flat[(key, m)]}, one for each key in
    `keys` (empty where flat has no entry), over den.

    flat is reduced in place as one clear_denominators row; den rides along
    as one more entry, which comes back as d (negated with every numerator
    when den is negative).
    """
    flat[None] = den
    flat = clear_denominators(flat)
    d = flat.pop(None)
    sign = -1 if d < 0 else 1
    num = {key: {} for key in keys}
    for (key, m), v in flat.items():
        num[key][m] = sign * v
    return sign * d, num


def structure_constants(alg: CrossAlgebra, n: int) -> StructureTable:
    """Multiply basis diagrams by stacking and normalizing; exact.

    basis_i o basis_j is basis_j glued on top of basis_i (compose_planar).
    Only the generator rows of `_closure` are multiplied this way; the
    products share one normalization memo, so each distinct diagram they
    reach is reduced once per table.  The local rows id (x) x (x) id come
    first, and most other rows i come with a finished cell
    e_a e_s = c e_i + sum_m rest[m] e_m whose other rows are all built;
    associativity gives
        e_i e_k = c^-1 (e_a (e_s e_k) - sum_m rest[m] e_m e_k),
    that is t[i][k] = c^-1 (sum_m t[s][k][m] t[a][m]
                            - sum_(m in rest) rest[m] t[m][k]).
    This is exact, not a shortcut: the algebra is associative and its
    basis is independent (`matrix_model` certifies both), so every cell is
    the unique basis expansion of its product, whichever way it is
    computed.

    The rows are built over the integers: row i is held as integer
    numerators N_i over one positive denominator d_i, t[i][k] = N_i[k] / d_i.
    A generator row's normal forms are converted once (`_numerators`).  A
    derived row reads its coefficients off the numerators, c = N_a[s][i] /
    d_a and rest[m] = N_a[s][m] / d_a, so with L the least common multiple
    of d_s and the d_m over rest, the formula above becomes one integer sum
    per row (`_expand`, keyed (column k, basis index p))
        N_i[k][p] = (L/d_s) sum_m N_s[k][m] N_a[m][p]
                    - sum_(m in rest) (L/d_m) N_a[s][m] N_m[k][p]
    over d_i = N_a[s][i] L, reduced by the row's gcd and with the sign
    moved into N_i, then split into cells (`_split`, as for a generator
    row).  Scaling a row changes no cell's terms, so `_closure` finds the
    same rows on the numerators as it would on the Fractions.  The Fractions are written once, at the end, each
    cell's as its numerators are freed; equal values share one Fraction.
    """
    if alg.case is CaseTag.DIM7 and n > 3:
        raise BudgetError("7-dimensional case budgeted to n <= 3")
    if alg.case is not CaseTag.DIM7 and n > 4:
        raise BudgetError("3-dimensional cases budgeted to n <= 4")
    basis = basis_diagrams(alg.case, n, n)
    nb = len(basis)
    st = StructureTable(alg.case, n, basis, {})
    index, table = st.index, st.table
    num, den = {}, {}       # (i, j) -> {k: int}; i -> d_i
    memo = {}
    for i, how in _closure(st, num):
        if how is None:
            flat, d = {}, 1
            for j, dj in enumerate(basis):
                out = normalize_diagrams([(compose_planar(basis[i], dj), 1)], alg,
                                         memo=memo)
                for diag, c in out:
                    k = index.get(diag.canonical_encoding())
                    if k is None:
                        raise RuntimeError("product left the basis; normalization bug")
                    flat[(j, k)] = c
        else:
            a, s, c, rest = how
            # over[m] = L / d_m: the row of 1 / d_m scaled to primitive integers
            over = clear_denominators({m: Fraction(1, den[m]) for m in (s, *rest)})
            rest = [(m, -over[m] * v) for m, v in rest.items()]
            flat = _expand(chain(((k, over[s] * x, num[(a, m)]) for k in range(nb)
                                  for m, x in num[(s, k)].items()),
                                 ((k, w, num[(m, k)]) for m, w in rest for k in range(nb))))
            d = c * over[s] * den[s]
        den[i], row = _split(flat, d, range(nb))
        for j, cell in row.items():
            num[(i, j)] = cell
    fraction = cache(Fraction)      # one object per distinct value in the table
    for i in range(nb):
        d = den[i]
        for j in range(nb):
            table[(i, j)] = {k: fraction(v, d) for k, v in num.pop((i, j)).items()}
    return st


# ------------------------------------------------------------------ Brauer

def brauer_diagrams(n: int):
    """Perfect matchings of {t0..t(n-1), b0..b(n-1)} as frozensets of pairs."""
    points = [("t", i) for i in range(n)] + [("b", i) for i in range(n)]

    def rec(left):
        if not left:
            yield frozenset()
            return
        a = left[0]
        for i in range(1, len(left)):
            b = left[i]
            rest = left[1:i] + left[i + 1:]
            for sub in rec(rest):
                yield sub | {frozenset((a, b))}

    return list(rec(points))


def _straight(n, skip=()):
    """The straight strands t_k -- b_k for k < n outside `skip`."""
    return {frozenset((("t", k), ("b", k))) for k in range(n) if k not in skip}


def brauer_identity(n):
    return frozenset(_straight(n))


def brauer_sigma(n, i):
    """The transposition diagram swapping strands i, i+1."""
    return frozenset(_straight(n, (i, i + 1)) | {frozenset((("t", i), ("b", i + 1))),
                                                 frozenset((("t", i + 1), ("b", i)))})


def brauer_e(n, i):
    """The cap-cup diagram on strands i, i+1."""
    return frozenset(_straight(n, (i, i + 1)) | {frozenset((("t", i), ("t", i + 1))),
                                                 frozenset((("b", i), ("b", i + 1)))})


def brauer_compose(d1, d2, n):
    """d1 after d2 (d2 on top); returns (diagram, closed loop count).

    d2's caps and d1's cups stay.  Seam point j is a port (join_ports)
    linked up to what d2 pairs ("b", j) with and down to what d1 pairs
    ("t", j) with; each path pairs two boundary points of the product and
    each cycle is a closed loop."""
    above = {a: b for p in d2 for a, b in (tuple(p), tuple(p)[::-1])}
    below = {a: b for p in d1 for a, b in (tuple(p), tuple(p)[::-1])}
    up = [(q[1], None) if q[0] == "b" else (None, q)
          for q in (above[("b", j)] for j in range(n))]
    down = [(q[1], None) if q[0] == "t" else (None, q)
            for q in (below[("t", j)] for j in range(n))]
    pairs, loops = join_ports(up, down)
    kept = ({p for p in d2 if all(a[0] == "t" for a in p)}
            | {p for p in d1 if all(a[0] == "b" for a in p)})
    return frozenset(kept.union(map(frozenset, pairs))), loops


def matching_word(n: int, diagram) -> TangleWord:
    """Realize a Brauer diagram as a tangle word (crossings allowed)."""
    cap_partner = {}
    target = {}
    cups = []
    for p in diagram:
        a, b = sorted(p)
        if a[0] == "t" and b[0] == "t":
            cap_partner[a[1]] = b[1]
            cap_partner[b[1]] = a[1]
        elif a[0] == "b" and b[0] == "b":
            cups.append((a[1], b[1]))
        else:
            bot, top = (a, b) if a[0] == "b" else (b, a)
            target[top[1]] = bot[1]

    slices = []
    # labels travel with the strands; a cap pair is labelled by its smaller
    # top index
    strands = [("cap", min(i, cap_partner[i])) if i in cap_partner
               else ("bot", target[i]) for i in range(n)]

    def emit_swap(pos):
        slices.append([Generator.ID] * pos + [Generator.CROSS]
                      + [Generator.ID] * (len(strands) - pos - 2))
        strands[pos], strands[pos + 1] = strands[pos + 1], strands[pos]

    # phase 1: cap away top-top pairs
    while any(lab[0] == "cap" for lab in strands):
        hit = None
        for i in range(len(strands) - 1):
            if strands[i][0] == "cap" and strands[i] == strands[i + 1]:
                hit = i
                break
        if hit is not None:
            slices.append([Generator.ID] * hit + [Generator.CAP]
                          + [Generator.ID] * (len(strands) - hit - 2))
            del strands[hit:hit + 2]
            continue
        # bring the leftmost cap pair together by one swap
        first = next(i for i, lab in enumerate(strands) if lab[0] == "cap")
        mate = next(i for i in range(first + 1, len(strands))
                    if strands[i] == strands[first])
        emit_swap(mate - 1)
    # phase 2: open cups (anywhere), then sort everything to target order
    for a, b in cups:
        slices.append([Generator.CUP] + [Generator.ID] * len(strands))
        strands[0:0] = [("bot", a), ("bot", b)]
    # bubble sort by bottom target
    changed = True
    while changed:
        changed = False
        for i in range(len(strands) - 1):
            if strands[i][1] > strands[i + 1][1]:
                emit_swap(i)
                changed = True
    word = TangleWord(n, n, slices)
    return word


def brauer_map(alg: CrossAlgebra, n: int):
    """The algebra map from Brauer diagrams into the normalized basis.

    Returns (diagrams, images, delta, report) where images[i] is the LinComb
    of basis diagrams for diagrams[i], delta the loop parameter, and report
    a dict of homomorphism/bijectivity facts.
    """
    if alg.case is CaseTag.DIM7:
        raise ValueError("the Brauer comparison applies to the 3-dimensional cases")
    if n > 4:
        raise BudgetError("Brauer comparison budgeted to n <= 4")
    delta = rules_for(alg).circle_value
    diagrams = sorted(brauer_diagrams(n), key=sorted_key)
    memo = {}
    images = {d: normalize(matching_word(n, d), alg, memo=memo) for d in diagrams}

    gens = [brauer_sigma(n, i) for i in range(n - 1)] + \
           [brauer_e(n, i) for i in range(n - 1)]
    hom_ok = True
    for g in gens:
        for h in gens:
            prod, loops = brauer_compose(g, h, n)
            lhs = normalize(compose_tangles(matching_word(n, g),
                                            matching_word(n, h)), alg, memo=memo)
            rhs = images[prod].scale(delta ** loops)
            if lhs != rhs:
                hom_ok = False
    # loop closure on the e generators
    e_ok = True
    for i in range(n - 1):
        e = brauer_e(n, i)
        prod, loops = brauer_compose(e, e, n)
        if prod != e or loops != 1:
            e_ok = False

    basis = basis_diagrams(alg.case, n, n)
    index = {d.canonical_encoding(): k for k, d in enumerate(basis)}
    rows = []
    for d in diagrams:
        row = {}
        for diag, c in images[d]:
            row[index[diag.canonical_encoding()]] = c
        rows.append(row)
    rank = sparse_rank(rows)
    report = {
        "delta": delta,
        "homomorphism": hom_ok,
        "e_squared": e_ok,
        "image_rank": rank,
        "brauer_dim": len(diagrams),
        "bijective": rank == len(diagrams) == len(basis),
    }
    return diagrams, images, delta, report


def sorted_key(d):
    return tuple(sorted(tuple(sorted(p)) for p in d))


# ------------------------------------------------------------------ model

def matrix_model(alg: CrossAlgebra, n: int, der: DerivationAlgebra | None = None):
    """Faithfulness of the diagram basis as concrete tensor maps.

    With phi the evaluation of a basis diagram as a tensor map,
    `structure_match` holds when the cells of the generator rows of
    `_closure` match the composed maps, phi(e_g) phi(e_j) = phi(t[g][j])
    for every generator g and every j, and the table is associative
    (`check_associative`).  That is every cell.  Let
    e_i = c^-1 (e_a e_s - sum_m rest[m] e_m) be a derived row, rows a, s
    and every row of rest reached before it and all their cells matching.
    Cell (a, s) gives phi(e_a) phi(e_s) = c phi(e_i) + sum_m rest[m]
    phi(e_m), so phi(e_i) = c^-1 (phi(e_a) phi(e_s) - sum_m rest[m]
    phi(e_m)).  For every j, phi(e_a) phi(e_s) phi(e_j)
        = phi(e_a) phi(e_s e_j)                 (row s)
        = phi(e_a (e_s e_j))                    (row a, linearly)
        = phi((e_a e_s) e_j)                    (associativity)
    and phi(e_m) phi(e_j) = phi(e_m e_j) (the rows of rest), so
        phi(e_i) phi(e_j) = c^-1 phi((e_a e_s - sum_m rest[m] e_m) e_j)
                          = phi(e_i e_j),
    and row i matches as well; by induction every row does.  The rows
    are read off this table, not off how it was built, so the verdict is
    that of checking every cell, for any table.
    """
    table = structure_constants(alg, n)
    basis = table.basis
    maps = [eval_diagram(d, alg) for d in basis]
    rows = [_flat(t) for t in maps]
    rank = sparse_rank(rows)
    independent = rank == len(basis)

    associative = table.check_associative()
    consistent = associative and all(
        {(j, m): v for m, v in _flat(compose(maps[g], maps[j])).items()}
        == _expand((j, c, rows[l]) for l, c in table.table[(g, j)].items())
        for g in table.generator_rows() for j in range(len(basis)))

    if der is None:
        der = derivations(alg)
    equivariant = all(equivariance_check(t, der) for t in maps)
    return {
        "basis_size": len(basis),
        "independent": independent,
        "structure_match": consistent,
        "equivariant": equivariant,
        "identity": table.check_identity(),
        "associative": associative,
        "table": table,
    }


def _flat(t):
    """t's entries keyed by one int each, its output then input indices
    read as the digits of a base-dim number."""
    d = t.algebra.dim
    flat = {}
    for (out, inn), v in t.entries.items():
        key = 0
        for x in out + inn:
            key = key * d + x
        flat[key] = v
    return flat
