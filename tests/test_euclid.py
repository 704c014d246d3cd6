"""Representation matrix, distances, contrasts, and rank certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest

from g24verify import euclid
from g24verify.errors import VerificationError


def rational_rank(rows) -> int:
    """Oracle: Gaussian elimination over exact rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    m, n = len(mat), len(mat[0])
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, m) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def naive_distance_sq(y, i, j) -> int:
    """Oracle: plain Python coordinate summation, no numpy."""
    total = 0
    for t in range(y.n):
        d = y.entry(t, i) - y.entry(t, j)
        total += d * d
    return total


def test_representation_entries(y, g):
    assert y.n == 416
    for i in range(0, 416, 41):
        assert y.entry(i, i) == 4
        assert y.column_sum(i) == 104
    for i, j in [(0, 1), (5, 100), (200, 300)]:
        want = 1 if g.adjacent(i, j) else 0
        assert y.entry(i, j) == want
        assert y.entry(j, i) == want


def test_representation_column_shape(y):
    col = y.column(7)
    assert len(col) == 416
    assert col[7] == 4
    assert col.count(1) == 100
    assert col.count(0) == 315


def test_pair_distance_matches_naive_oracle(y, g):
    rng = random.Random(1234)
    for _ in range(40):
        i, j = rng.sample(range(416), 2)
        assert euclid.pair_distance_sq(y, i, j) == naive_distance_sq(y, i, j)
    with pytest.raises(ValueError):
        euclid.pair_distance_sq(y, 5, 5)


def test_distance_values_follow_adjacency(y, g):
    rng = random.Random(99)
    for _ in range(60):
        i, j = rng.sample(range(416), 2)
        want = 144 if g.adjacent(i, j) else 192
        assert euclid.pair_distance_sq(y, i, j) == want


def test_distance_census_exhaustive(y, g):
    census = euclid.distance_census(y, g)
    assert census == {144: 20800, 192: 65520}


def test_distance_census_refuses_entries_outside_0_to_4(y, g):
    # The int16 Gram matrix is exact only for entries in [0, 4].
    for value in (-1, 5):
        bad = y.entries.copy()
        bad[3, 7] = bad[7, 3] = value
        with pytest.raises(VerificationError) as exc:
            euclid.distance_census(euclid.ReprMatrix(y.n, bad), g)
        assert exc.value.witness == (3, 7, value)


def test_contrast_vectors(part, contrasts):
    p, q = contrasts
    assert sum(p) == 0 and sum(q) == 0
    assert sum(x * x for x in p) == 64
    assert sum(x * x for x in q) == 192
    assert sum(a * b for a, b in zip(p, q)) == 0
    for i in part.b1:
        assert p[i] == 0 and q[i] == 2
    for i in part.b2:
        assert p[i] == 1 and q[i] == -1
    for i in part.b3:
        assert p[i] == -1 and q[i] == -1
    for i in part.c:
        assert p[i] == 0 and q[i] == 0


def test_inner_product_patterns(y, part, contrasts):
    p, q = contrasts
    euclid.verify_inner_products(y, p, q, part)
    # Explicit samples of the four cases, computed naively.
    def dot(vec, col):
        return sum(a * b for a, b in zip(vec, col))

    assert dot(p, y.column(part.b1[0])) == 0
    assert dot(p, y.column(part.b2[0])) == 24
    assert dot(p, y.column(part.b3[0])) == -24
    assert dot(p, y.column(part.c[0])) == 0
    assert dot(q, y.column(part.b1[0])) == 48
    assert dot(q, y.column(part.b2[0])) == -24
    assert dot(q, y.column(part.b3[0])) == -24
    assert dot(q, y.column(part.c[0])) == 0


def test_inner_products_reject_corruption(y, part, contrasts):
    p, q = contrasts
    bad = list(p)
    bad[part.c[0]] = 1
    with pytest.raises(VerificationError):
        euclid.verify_inner_products(y, bad, q, part)


def test_rank_mod_prime_basics():
    prime = euclid.DEFAULT_PRIMES[0]
    assert euclid.rank_mod_prime(np.eye(10, dtype=np.int64), prime) == 10
    assert euclid.rank_mod_prime(np.zeros((5, 7), dtype=np.int64), prime) == 0
    assert euclid.rank_mod_prime([[2, 4], [1, 2]], prime) == 1
    assert euclid.rank_mod_prime([[1, 2], [3, 4]], prime) == 2


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
        want = rational_rank(mat)
        for prime in euclid.DEFAULT_PRIMES:
            got = euclid.rank_mod_prime(mat, prime)
            assert got == want


def test_rank_mod_prime_never_exceeds_rational_rank():
    rng = random.Random(21)
    for _ in range(8):
        mat = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        want = rational_rank(mat)
        assert euclid.rank_mod_prime(mat, euclid.DEFAULT_PRIMES[1]) <= want


def test_rank_mod_prime_validates_prime():
    # The principal-pivot kernel shares the check.
    for bad in (2, 91, 2**31 + 11):  # 91 = 7 * 13
        with pytest.raises(ValueError):
            euclid.rank_mod_prime([[1]], bad)
        with pytest.raises(ValueError):
            euclid.principal_prefix_ranks([[1]], bad, (1,))


def test_principal_prefix_ranks_refuses_non_symmetric():
    prime = euclid.DEFAULT_PRIMES[0]
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        euclid.principal_prefix_ranks([[1, 2], [3, 4]], prime, (2,))
    with pytest.raises(ValueError):
        euclid.principal_prefix_ranks([[1, 2, 3], [2, 1, 0]], prime, (2,))


def test_principal_pivots_match_elimination_on_y(y, part):
    order = part.c + part.b1 + part.b2 + part.b3
    nested = y.entries[np.ix_(order, order)]
    for prime in euclid.DEFAULT_PRIMES:
        got = euclid.principal_prefix_ranks(nested, prime, (320, 352, 416))
        assert got == (64, 65, 66)
        assert got == euclid.rank_mod_prime(y.entries[:, order], prime, (320, 352, 416))


def test_is_prime():
    assert euclid.is_prime(2) and euclid.is_prime(3)
    assert euclid.is_prime(2**31 - 1)
    assert euclid.is_prime(2**31 - 19)
    assert not euclid.is_prime(1)
    assert not euclid.is_prime(2**31 - 3)


def test_dimension_chain_certificates(certificates):
    by_label = {c.label: c for c in certificates}
    assert set(by_label) == {"V", "C+B1", "C"}
    assert by_label["V"].affine_dim == 65
    assert by_label["C+B1"].affine_dim == 64
    assert by_label["C"].affine_dim == 63
    assert by_label["V"].size == 416
    assert by_label["C+B1"].size == 352
    assert by_label["C"].size == 320
    for cert in certificates:
        assert cert.passed
        assert len(cert.lower_bounds) >= 2
        for prime, rank in cert.lower_bounds.items():
            assert rank == cert.affine_dim
            assert cert.linear_ranks[prime] == cert.affine_dim + 1
        assert cert.upper_argument


def test_dimension_chain_respects_prime_override(y, part, spectrum):
    certs = euclid.certified_dimension_chain(
        y, part, spectrum, primes=(1_000_003, 999_983)
    )
    assert [c.affine_dim for c in certs] == [65, 64, 63]
    with pytest.raises(ValueError):
        euclid.certified_dimension_chain(y, part, spectrum, primes=(1_000_003,))
