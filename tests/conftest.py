import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tangleweb.algebra import CaseTag, build
from tangleweb.tangle import Generator, TangleWord


@pytest.fixture(scope="session")
def dim3():
    return build(CaseTag.DIM3)


@pytest.fixture(scope="session")
def dim7():
    return build(CaseTag.DIM7)


@pytest.fixture(scope="session")
def kap():
    return build(CaseTag.KAP)


@pytest.fixture(scope="session")
def all_algebras(dim3, dim7, kap):
    return (dim3, dim7, kap)


def flipped_fano(dim7):
    """dim7 with the oriented triple (1,2,3) reversed: a hand-built algebra
    of case dim7 whose products differ from build(dim7)'s."""
    cross = [[list(col) for col in row] for row in dim7.cross]
    a, b, c = 0, 1, 2   # triple (1,2,3) zero-based
    for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
        cross[i][j][k] = Fraction(-1)
        cross[j][i][k] = Fraction(1)
    return replace(dim7, cross=tuple(tuple(tuple(col) for col in row) for row in cross))


# words whose evaluation is over tensor.MAX_ENTRIES: from the start
# (7^20000000 entries), and in one slice of fifteen cups (3^15 entries,
# 3^30 keys)
OVER_BUDGET = (("dim7", "tangle 20000000 -> 20000000"),
               ("dim3", "tangle 0 -> 30 / " + ",".join(["cup"] * 15)))


def random_word(rng, max_slices=8, max_strands=6, p_cross=0.0):
    """Seeded random word generator shared across the suite."""
    n_in = rng.randint(0, min(4, max_strands))
    slices = []
    cur = n_in
    for _ in range(rng.randint(0, max_slices)):
        row, left, width_out = [], cur, 0
        while left > 0:
            opts = ["id", "w"]
            if left >= 2:
                opts += ["cap", "m"]
            if left >= 2 and rng.random() < p_cross:
                opts += ["x", "x"]
            if width_out + left + 2 <= max_strands and rng.random() < 0.2:
                opts.append("cup")
            g = rng.choice(opts)
            gen = {"id": Generator.ID, "cap": Generator.CAP, "cup": Generator.CUP,
                   "m": Generator.MULT, "w": Generator.COMULT, "x": Generator.CROSS}[g]
            if gen.n_out + width_out + (left - gen.n_in) > max_strands:
                gen = Generator.ID
            row.append(gen)
            left -= gen.n_in
            width_out += gen.n_out
        if not row and rng.random() < 0.4 and width_out + 2 <= max_strands:
            row = [Generator.CUP]
            width_out = 2
        slices.append(row)
        cur = width_out
    return TangleWord(n_in, cur, slices)


def seeded(n):
    return random.Random(n)
