import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from tangleweb import linalg
from tangleweb.basis import basis_diagrams, riordan
from tangleweb.linalg import clear_denominators, sparse_rank
from tangleweb.oracle import (BudgetError, CertificateError, DerivationAlgebra,
                              _all_action_rows, _entries, action_matrix, bracket,
                              certified_dim, check_closed_under_bracket,
                              check_kills_form, derivations, equivariance_check,
                              generating_subset, invariant_dim, zero_grade)
from tangleweb.rewrite import eval_diagram
from tangleweb.tangle import parse_word
from tangleweb.tensor import (TensorMap, compose, evaluate, identity_map, tensor_product,
                              zero_map)


def test_derivation_dimensions(dim3, dim7, kap):
    assert derivations(dim3).dim == 3                      # so(3)
    assert derivations(dim7).dim == 14                     # g2
    der = derivations(kap)
    assert (der.dim, der.even_dim(), der.odd_dim()) == (5, 3, 2)   # osp(1|2)


def test_derivations_structure(all_algebras):
    for alg in all_algebras:
        der = derivations(alg)
        assert check_closed_under_bracket(der)
        assert check_kills_form(der)


def dropped(der, drop=2):
    """The basis without element `drop`: not closed under brackets."""
    keep = [i for i in range(der.dim) if i != drop]
    return DerivationAlgebra(der.alg, [der.mats[i] for i in keep],
                             [der.parities[i] for i in keep])


def test_bracket_closure_detects_a_dropped_element(all_algebras):
    # without basis element 2 the brackets leave the span (for dim3 and kap
    # it is [D_0, D_1] itself, up to a scalar)
    for alg in all_algebras:
        assert not check_closed_under_bracket(dropped(derivations(alg))), alg.case


def bracket_span(elems):
    """A basis of the span of every iterated bracket of `elems`, a list of
    ({(a, b): value}, parity), grown level by level: every bracket of two
    basis elements is tried, and one that raises sparse_rank is kept."""
    basis = []
    todo = list(elems)
    while True:
        grew = False
        for x, p in todo:
            if sparse_rank([e for e, _ in basis] + [x]) > len(basis):
                basis.append((x, p))
                grew = True
        if not grew:
            return basis
        todo = [(bracket(x, y, p, q), p ^ q) for x, p in basis for y, q in basis]


def closure_holds(der, subset, which):
    """Whether the bracket closure of basis elements `subset` holds each of
    the basis elements `which`."""
    span = [e for e, _ in bracket_span([(_entries(der.mats[i]), der.parities[i])
                                        for i in subset])]
    return [sparse_rank(span + [_entries(der.mats[i])]) == len(span) for i in which]


def test_generating_subset_generates(dim3, dim7, kap):
    # first fit: an element is kept unless the brackets of those kept before
    # it reach it; the closure of what is kept holds every basis element
    for alg, size in ((dim3, 2), (kap, 3), (dim7, 5)):
        der = derivations(alg)
        subset = generating_subset(der)
        assert len(subset) == size, alg.case
        assert all(closure_holds(der, subset, range(der.dim))), alg.case
        assert generating_subset(der) is subset     # held on the instance
        # each kept element is the first one the closure of those kept
        # before it does not hold
        for t, i in enumerate(subset):
            assert closure_holds(der, subset[:t], range(i + 1)) == [
                j not in subset[t:] for j in range(i + 1)], (alg.case, i)
    assert generating_subset(derivations(dim7)) == [0, 1, 3, 4, 8]


def test_generating_subset_of_a_non_closed_basis(all_algebras):
    # the closure of the subset holds every element of the partial basis,
    # so the subset has the partial basis's invariants and commutants even
    # though the partial basis is not closed under brackets
    for alg in all_algebras:
        part = dropped(derivations(alg))
        assert all(closure_holds(part, generating_subset(part), range(part.dim))), alg.case
        for n in range(5):
            assert invariant_dim(alg, n, der=part) == reference_dim(alg, n, part), \
                (alg.case, n)
        maps = [evaluate(parse_word(txt), alg)
                for txt in ("tangle 2 -> 2 / x", "tangle 2 -> 1 / m", "tangle 0 -> 2 / cup")]
        maps += [TensorMap(alg, 1, 1, {((0,), (1,)): Fraction(1)}),
                 TensorMap(alg, 1, 1, {((0,), (0,)): Fraction(1)})]
        for f in maps:
            want = all(compose(f, action_matrix(part, w, f.n_in))
                       == compose(action_matrix(part, w, f.n_out), f)
                       for w in range(part.dim))
            assert equivariance_check(f, part) == want, alg.case


def test_leibniz_holds_on_basis(kap):
    der = derivations(kap)
    d = kap.dim
    par = kap.parity
    for D, dp in zip(der.mats, der.parities):
        for i in range(d):
            for j in range(d):
                lhs = {}
                for b, c in kap.times(i, j).items():
                    for a in range(d):
                        if D[a][b]:
                            lhs[a] = lhs.get(a, Fraction(0)) + c * D[a][b]
                rhs = {}
                for a in range(d):
                    if D[a][i]:
                        for k, c in kap.times(a, j).items():
                            rhs[k] = rhs.get(k, Fraction(0)) + D[a][i] * c
                sgn = -1 if (dp and par[i]) else 1
                for a in range(d):
                    if D[a][j]:
                        for k, c in kap.times(i, a).items():
                            rhs[k] = rhs.get(k, Fraction(0)) + sgn * D[a][j] * c
                assert ({k: v for k, v in lhs.items() if v}
                        == {k: v for k, v in rhs.items() if v})


def test_invariant_dims_3dim(dim3, kap):
    # up to k = 8: 1,641 (dim3) and 1,107 (kap) zero-grade columns, exact over Q
    for alg in (dim3, kap):
        der = derivations(alg)
        for n in range(9):
            assert invariant_dim(alg, n, der=der) == riordan(n), (alg.case, n)


def scaled(der):
    """The basis with each even element scaled by 2/3 and each odd one by
    1/5.  The weights of a diagonal element survive the scaling, the
    rotations (X^3 = -X) do not, so dim3 and dim7 lose their grading."""
    mats = [[[(Fraction(1, 5) if p else Fraction(2, 3)) * v for v in row] for row in m]
            for m, p in zip(der.mats, der.parities)]
    return DerivationAlgebra(der.alg, mats, der.parities)


def test_scaled_basis_keeps_the_dims(all_algebras):
    for alg in all_algebras:
        der = derivations(alg)
        for n in range(6):
            assert (invariant_dim(alg, n, der=scaled(der))
                    == invariant_dim(alg, n, der=der)), (alg.case, n)


def test_action_rows_are_integer_rows(all_algebras):
    for alg in all_algebras:
        der = derivations(alg)
        for d in (der, scaled(der)):
            _, rows = _all_action_rows(d, 3)
            assert all(type(v) is int for row in rows for v in row.values()), alg.case


def test_invariant_dims_dim7_small(dim7):
    der = derivations(dim7)
    got = [invariant_dim(dim7, n, der=der) for n in range(4)]
    assert got == [1, 0, 1, 1]


def basis_vectors(alg, n):
    return [{i: c for (_, i), c in eval_diagram(d, alg).entries.items()}
            for d in basis_diagrams(alg.case, n, 0)]


@pytest.mark.parametrize("case, kmax", [("dim3", 6), ("kap", 6), ("dim7", 4)])
def test_certified_matches_exact(request, case, kmax):
    alg = request.getfixturevalue(case)
    der = derivations(alg)
    for n in range(kmax + 1):
        assert (certified_dim(alg, n, basis_vectors(alg, n), der=der)
                == invariant_dim(alg, n, der=der)), (case, n)


def reference_dim(alg, n, der):
    """dim^n minus the exact rank of the full action of every derivation,
    its rows read off action_matrix: no grading anywhere."""
    rows = []
    for which in range(der.dim):
        images = {}
        for (out, inp), c in action_matrix(der, which, n).entries.items():
            images.setdefault(inp, {})[out] = c
        rows.extend(images.values())
    return alg.dim ** n - sparse_rank(rows)


def upper_end(alg, n, der):
    """certified_dim's upper end: with no vectors the lower end is 0."""
    try:
        return certified_dim(alg, n, [], der=der)
    except CertificateError as exc:
        return exc.upper


def unimodular_mix(der):
    """The basis mixed within each parity by an integer unimodular matrix:
    element i becomes D_i + D_(i+1), the last one D_last + D_0 + D_1 (the
    unit bidiagonal matrix, then its first row added to its last)."""
    d = der.alg.dim
    mats, parities = [], []
    for p in sorted(set(der.parities)):
        group = [m for m, q in zip(der.mats, der.parities) if q == p]
        rows = [[int(j in (i, i + 1)) for j in range(len(group))] for i in range(len(group))]
        rows[-1] = [x + y for x, y in zip(rows[-1], rows[0])]
        for row in rows:
            mats.append([[sum(c * m[a][b] for c, m in zip(row, group)) for b in range(d)]
                         for a in range(d)])
            parities.append(p)
    return DerivationAlgebra(der.alg, mats, parities)


def flat(alpha, d):
    return sum(a * d ** (len(alpha) - 1 - k) for k, a in enumerate(alpha))


@pytest.mark.parametrize("case, kmax", [("dim3", 6), ("kap", 6), ("dim7", 4)])
def test_graded_rank_matches_full_space_reference(request, case, kmax):
    alg = request.getfixturevalue(case)
    der = derivations(alg)
    for n in range(kmax + 1):
        want = reference_dim(alg, n, der)
        assert invariant_dim(alg, n, der=der) == want, (case, n)
        assert upper_end(alg, n, der) == want, (case, n)


@pytest.mark.parametrize("case", ["dim3", "kap", "dim7"])
def test_mixed_basis_takes_the_ungraded_path(request, case):
    alg = request.getfixturevalue(case)
    der = derivations(alg)
    mixed = unimodular_mix(der)
    for n in range(5):
        # no diagonal or rotation element is left, so nothing is graded away
        assert len(zero_grade(mixed, n)) == alg.dim ** n
        want = reference_dim(alg, n, der)
        assert invariant_dim(alg, n, der=mixed) == want, (case, n)
        assert upper_end(alg, n, mixed) == want, (case, n)


@pytest.mark.parametrize("case, kmax", [("dim3", 6), ("kap", 6), ("dim7", 5)])
def test_basis_evaluations_lie_in_zero_grade(request, case, kmax):
    alg = request.getfixturevalue(case)
    der = derivations(alg)
    for n in range(kmax + 1):
        g0 = set(zero_grade(der, n))
        for v in basis_vectors(alg, n):
            assert {flat(alpha, alg.dim) for alpha in v} <= g0, (case, n)


def test_zero_grade_counts_match_closed_forms(dim3, dim7, kap):
    # dim7: the octonions' Z/2^3-grading, each basis vector in its own
    # nonzero grade; dim3: a Z/2^2-grading; kap: the weights -1, 0, 1
    counts = {alg.case.value: [len(zero_grade(derivations(alg), k)) for k in range(8)]
              for alg in (dim3, kap)}
    der7 = derivations(dim7)
    counts["dim7"] = [len(zero_grade(der7, k)) for k in range(7)]
    assert counts["dim7"] == [(7 ** k + 7 * (-1) ** k) // 8 for k in range(7)]
    assert counts["dim3"] == [(3 ** k + 3 * (-1) ** k) // 4 for k in range(8)]
    assert counts["kap"] == [sum(comb(k, 2 * j) * comb(2 * j, j) for j in range(k // 2 + 1))
                             for k in range(8)]
    assert (counts["dim7"][5], counts["dim3"][7], counts["kap"][7]) == (2100, 546, 393)


@pytest.mark.parametrize("case, n, want", [("dim3", 7, 36), ("dim7", 4, 4)])
def test_rank_adds_rows_in_one_global_sort_order(request, case, n, want, monkeypatch):
    # sparse_rank's buckets by largest column feed RowSpan exactly the rows,
    # in exactly the order, of one stable sort of every primitive row by
    # (max, len, columns descending)
    alg = request.getfixturevalue(case)
    der = derivations(alg)
    seen = []

    class Spy(linalg.RowSpan):
        __slots__ = ()

        def add(self, row):
            seen.append(dict(row))
            return super().add(row)

    monkeypatch.setattr(linalg, "RowSpan", Spy)
    assert invariant_dim(alg, n, der=der) == want
    rows = [r for r in map(clear_denominators, _all_action_rows(der, n)[1]) if r]
    rows.sort(key=lambda r: (max(r), len(r), sorted(r, reverse=True)))
    assert len(seen) == len(rows) > 100
    assert seen == rows


def test_invariant_dim_peak_memory(dim7):
    # the rank holds flat indices, not (flat, alpha) tuples, and rows in
    # buckets by largest column, not beside a sort key each: dim7 at n = 5
    # peaked at 6.2 MB under tracemalloc with those, and at 4.1 MB without
    der = derivations(dim7)
    generating_subset(der)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert invariant_dim(dim7, 5, der=der) == 10
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 4.5e6, peak


def test_certificate_refuses_a_missing_web(dim7):
    vectors = basis_vectors(dim7, 5)
    with pytest.raises(CertificateError) as exc:
        certified_dim(dim7, 5, vectors[1:])
    assert (exc.value.lower, exc.value.upper) == (9, 10)
    assert "lower end 9, upper end 10" in str(exc.value)


def test_duplicated_web_miscounts(dim7):
    # the certificate still holds, so the count is what disagrees
    vectors = basis_vectors(dim7, 4)
    assert certified_dim(dim7, 4, vectors + vectors[:1]) == 4 != len(vectors) + 1


def test_budget_errors(dim7):
    # 7^7 is past EXACT_LIMIT; dim7 at n = 6 is in reach (criterion 7)
    with pytest.raises(BudgetError):
        invariant_dim(dim7, 7)
    with pytest.raises(BudgetError):
        certified_dim(dim7, 7, [])


def test_equivariance_of_evaluated_words(all_algebras):
    words = ["tangle 2 -> 2 / x", "tangle 2 -> 1 / m", "tangle 1 -> 1 / w / m",
             "tangle 0 -> 2 / cup"]
    for alg in all_algebras:
        der = derivations(alg)
        for txt in words:
            f = evaluate(parse_word(txt), alg)
            assert equivariance_check(f, der), (alg.case, txt)
        assert equivariance_check(identity_map(alg, 2), der)


def test_non_equivariant_map_detected(dim3, dim7, kap):
    for alg in (dim3, dim7, kap):
        der = derivations(alg)
        bad = TensorMap(alg, 1, 1, {((0,), (1,)): Fraction(1)})
        assert not equivariance_check(bad, der)


def test_action_matrix_super_signs(kap):
    der = derivations(kap)
    odd = next(i for i, p in enumerate(der.parities) if p == 1)
    a1 = action_matrix(der, odd, 1)
    a2 = action_matrix(der, odd, 2)
    # on two strands the second-slot action picks up the Koszul sign of the
    # first slot: check one odd-odd entry flips relative to the raw matrix
    D = der.mats[odd]
    par = kap.parity
    found = False
    for b in range(3):
        for a in range(3):
            if D[a][b] and par[b] == 1 and par[a] == 0:
                # acting in slot 2 past an odd first slot
                key = ((1, a), (1, b))
                if key in a2.entries:
                    assert a2.entries[key] == -D[a][b]
                    found = True
    assert found


def test_action_matrix_matches_slotwise_tensor_products(all_algebras):
    # an independent path to the action on V^(x)n: the sum over slots k of
    # id_k (x) D (x) id_(n-k-1), with the Koszul signs from tensor_product's
    # graded rule
    for alg in all_algebras:
        der = derivations(alg)
        for w, mat in enumerate(der.mats):
            D = TensorMap(alg, 1, 1, {((a,), (b,)): v for a, row in enumerate(mat)
                                      for b, v in enumerate(row)})
            for n in range(3 if alg.dim == 7 else 4):
                want = zero_map(alg, n, n)
                for k in range(n):
                    want = want.add(tensor_product(identity_map(alg, k), tensor_product(
                        D, identity_map(alg, n - k - 1))))
                assert action_matrix(der, w, n) == want, (alg.case, w, n)
