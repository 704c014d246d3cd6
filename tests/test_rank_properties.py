"""Property tests of `oracles.exact_column_rank`, the two-sided rank
certificate that test_c08_dimension_chain runs on y: it agrees with the
exact rational oracle `oracles.rational_rank` on small integer matrices,
and what it cannot certify it refuses, never returning a wrong rank.  The
matrices are drawn from `random.Random(seed)` for each seed of a literal
range, so every run reads the same ones."""

import random
from contextlib import suppress

import numpy as np
import pytest

from g24verify import VerificationError, graph

import oracles

BIG = 2**40


def test_exact_column_rank_matches_rational_rank():
    # An m x n integer matrix z with a list of distinct columns.  Even seeds
    # draw entries from -4 to 4 and also test the Gram matrix z z^T,
    # symmetric positive semidefinite of rank at most n.  Odd seeds draw
    # entries large enough that the certificate leaves int64: +-2**40 below
    # seed 16 and on every seed 1 mod 4, else any up to 2**40 in size.
    # Seeds 0 to 15 take m and n at 1 and at 7, with no columns before seed
    # 8 and every column from it; the others draw m and n from 1 to 7.
    for seed in range(150):
        with oracles.seed_named(seed):
            rng = random.Random(seed)
            if seed < 16:
                m, n = [(1, 1), (1, 7), (7, 1), (7, 7)][seed // 2 % 4]
                k, gram_k = (n, m) if seed >= 8 else (0, 0)
            else:
                m, n = rng.randint(1, 7), rng.randint(1, 7)
                k, gram_k = rng.randint(0, n), rng.randint(0, m)
            if seed % 2 == 0:
                values = range(-4, 5)
            elif seed < 16 or seed % 4 == 1:
                values = (-BIG, BIG)
            else:
                values = range(-BIG, BIG + 1)
            z = np.array(
                [[rng.choice(values) for _ in range(n)] for _ in range(m)],
                dtype=np.int64,
            )
            cols, gram_cols = rng.sample(range(n), k), rng.sample(range(m), gram_k)
            if seed % 2 == 0:
                gram = z @ z.T
                want = oracles.rational_rank(gram[:, gram_cols].tolist())
                assert oracles.exact_column_rank(gram, gram_cols) == want
            # On any integer matrix the rank is right or refused, even with
            # the pivots chosen mod 3, which often divides a minor the rank
            # needs.
            want = oracles.rational_rank(z[:, cols].tolist())
            for prime in (3, 2**31 - 1):
                with suppress(VerificationError):
                    assert oracles.exact_column_rank(z, cols, prime) == want


def test_corruptions_change_the_certified_rank_or_are_refused(rows, part):
    # A non-edge inside C made an edge: the columns of C gain rank 2.
    c = oracles.vertices(part.c)
    bad = list(rows)
    graph.flip_edge(bad, c[0], c[1])
    assert oracles.exact_column_rank(oracles.dense(bad), c) == 66
    # Pivots chosen mod 3, where the rank of y on V falls to 65, have no
    # certificate: the span identity fails, at the entry named.
    order = [v for m in (part.c, part.b1, part.b2, part.b3) for v in oracles.vertices(m)]
    with pytest.raises(VerificationError, match="65 pivot columns") as refused:
        oracles.exact_column_rank(oracles.dense(rows), order, prime=3)
    assert refused.value.witness == (0, 2)
