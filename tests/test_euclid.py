"""The rank and LDL^T oracles, until they move to test_rank_properties.py.

These tests test no module of src/: the program certifies the dimension
chain exactly (`graph.certified_dimension_chain`), and its tests are in the
euclid section of test_graph.py.  Here the reference elimination
`oracles.rank_mod_prime` (numpy, a test dependency only) is checked against
exact rationals, and the modular LDL^T in `oracles`, which keeps the
paper's own route to the dimension chain (arXiv 1308.0206), is checked
against it and against the exact ranks."""

import random

import numpy as np
import pytest

import oracles


def test_rank_mod_prime_basics():
    prime = oracles.PRIMES[0]
    assert oracles.rank_mod_prime(np.eye(10, dtype=np.int64), prime) == 10
    assert oracles.rank_mod_prime(np.zeros((5, 7), dtype=np.int64), prime) == 0
    assert oracles.rank_mod_prime([[2, 4], [1, 2]], prime) == 1
    assert oracles.rank_mod_prime([[1, 2], [3, 4]], prime) == 2


def test_rank_mod_prime_matches_rational_oracle():
    rng = random.Random(7)
    for _ in range(12):
        m = rng.randint(2, 8)
        n = rng.randint(2, 8)
        r = rng.randint(1, min(m, n))
        # Random rank-<= r product, exact over the integers.
        a = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
        mat = [
            [sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)]
            for i in range(m)
        ]
        want = oracles.rational_rank(mat)
        for prime in oracles.PRIMES:
            got = oracles.rank_mod_prime(mat, prime)
            assert got == want


def test_rank_mod_prime_never_exceeds_rational_rank():
    rng = random.Random(21)
    for _ in range(8):
        mat = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        want = oracles.rational_rank(mat)
        assert oracles.rank_mod_prime(mat, oracles.PRIMES[1]) <= want


def test_rank_mod_prime_validates_prime():
    # The principal-pivot kernel shares the check.
    for bad in (2, 91, 2**31 + 11):  # 91 = 7 * 13
        with pytest.raises(ValueError):
            oracles.rank_mod_prime([[1]], bad)
        with pytest.raises(ValueError):
            oracles.principal_prefix_ranks([[1]], bad, (1,))


def test_principal_pivots_match_elimination_on_y(rows, part):
    # With no stop, in label order, the kernel reaches the ranks that the
    # program certifies exactly; modular ranks never exceed rational ones,
    # so the stopped oracle, which test_c08_dimension_chain and
    # test_ldlt_oracle_certifies_the_chain_for_one_prime run, loses nothing.
    columns = [oracles.column(rows, i) for i in range(len(rows))]
    blocks = (part.c, part.b1, part.b2, part.b3)
    natural = [v for mask in blocks for v in oracles.vertices(mask)]
    stride = oracles.nested_order(part)
    assert sorted(stride[:320]) == natural[:320] and stride[320:] == natural[320:]
    prefixes = (320, 352, 416)
    for prime in oracles.PRIMES:
        got = oracles.principal_prefix_ranks(columns, prime, prefixes, natural)
        assert got == (64, 65, 66)
        y = oracles.dense(rows)[:, natural]
        assert got == oracles.rank_mod_prime(y, prime, prefixes)
        # The order inside C changes only how soon the pivots come.
        assert oracles.principal_prefix_ranks(columns, prime, prefixes, stride) == got


def test_caps_stop_each_prefix():
    # A prefix stops at its cap and the next prefix starts after it, even
    # where the skipped indices hold pivots.
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    prime = oracles.PRIMES[0]
    assert oracles.principal_prefix_ranks(eye, prime, (2, 4), caps=(1, 3)) == (1, 3)
    assert oracles.principal_prefix_ranks(eye, prime, (4, 2), caps=(9, 9)) == (4, 2)


def test_stride_order_finds_the_c_pivots_first(rows, part):
    columns = [oracles.column(rows, i) for i in range(len(rows))]
    blocks = (part.c, part.b1, part.b2, part.b3)
    natural = [v for mask in blocks for v in oracles.vertices(mask)]
    stride = oracles.nested_order(part)
    for prime in oracles.PRIMES:
        assert oracles.principal_prefix_ranks(columns, prime, (64,), stride) == (64,)
        got = oracles.principal_prefix_ranks(columns, prime, (64, 289), natural)
        assert got == (39, 64)


def test_is_prime():
    assert oracles.is_prime(2) and oracles.is_prime(3)
    assert oracles.is_prime(2**31 - 1)
    assert oracles.is_prime(2**31 - 19)
    assert not oracles.is_prime(1)
    assert not oracles.is_prime(2**31 - 3)


def test_ldlt_oracle_certifies_the_chain_for_one_prime(rows, part, certificates):
    # The paper's route (arXiv 1308.0206): the pivots of one prime reach
    # every exact rank.  test_c08_dimension_chain takes PRIMES[0].
    ranks = tuple(c["linear_rank"] for c in reversed(certificates))
    for prime in (oracles.PRIMES[1], 1_000_003, 999_983, 5):
        assert oracles.modular_dimension_chain(rows, part, prime) == ranks == (64, 65, 66)


def test_ldlt_oracle_falls_short_mod_3(rows, part):
    # Mod 3 a pivot of y vanishes and the pivots on V stop one short; 3 is
    # the only prime below 400 that falls short on y.  The exact chain has
    # no such case.
    assert oracles.modular_dimension_chain(rows, part, 3) == (64, 65, 65)
