"""Representation matrix, distances, contrasts, and rank certificates.

y = A + 4I lives only in the graph: the program reads its columns through
`euclid.column_digits`, and the oracles take A's rows as y's column ints.
numpy is a test dependency only: it gives the reference elimination
`rank_mod_prime` and the Gram-matrix oracle of the distance census, which
in turn checks the scanned census in `oracles` that the derived one is
compared with."""

import random
from fractions import Fraction

import numpy as np
import pytest

from g24verify import euclid, graph
from g24verify.errors import InconclusiveError, VerificationError

import oracles


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


def rank_mod_prime(
    rows, prime: int, prefixes: tuple[int, ...] | None = None
) -> int | tuple[int, ...]:
    """Reference: rank over GF(prime) by Gaussian elimination with modular
    inverses, on int64 arrays.

    Pivoting is deterministic: columns in order, first nonzero row below the
    pivot row.  A column gets a pivot exactly when it is independent of the
    columns before it, so the pivots among the first k columns number the
    rank of those k columns.  With `prefixes`, returns that rank for each k
    in it, all from one elimination; otherwise the rank of the whole matrix.
    Primes below 2**31 keep every product of two residues within int64.
    """
    euclid._check_prime(prime)
    a = np.array(rows, dtype=np.int64) % prime
    if a.ndim != 2:
        raise ValueError("rank_mod_prime expects a 2-d matrix")
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # Columns left of c are already zero in rows r and below.
        inv = pow(int(a[r, c]), -1, prime)
        a[r, c:] = a[r, c:] * inv % prime
        below = a[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            idx = r + 1 + nzb
            a[idx, c:] = (a[idx, c:] - below[nzb, None] * a[r, c:]) % prime
        pivots.append(c)
        r += 1
        if r == m:
            break
    if prefixes is None:
        return r
    return tuple(sum(1 for c in pivots if c < k) for k in prefixes)


def column(g, i) -> list[int]:
    """Column i of y = A + 4I as the program reads it."""
    return [int(d) for d in euclid.column_digits(g, i)]


def dense(columns) -> np.ndarray:
    """y as an int64 array from its column ints, entry [t, i] read from
    column i, with 4 on the diagonal."""
    bits = graph.bit_strings(columns, len(columns))
    a = np.array([[int(b) for b in s] for s in bits], dtype=np.int64).T
    np.fill_diagonal(a, 4)
    return a


def naive_distance_sq(columns, i, j) -> int:
    """Oracle: plain Python coordinate summation, no numpy."""
    total = 0
    for t in range(len(columns)):
        d = oracles.entry(columns, t, i) - oracles.entry(columns, t, j)
        total += d * d
    return total


def test_representation_entries(g):
    for i in range(0, 416, 41):
        assert oracles.entry(g.rows, i, i) == 4
        assert sum(column(g, i)) == 104
        assert column(g, i) == [oracles.entry(g.rows, t, i) for t in range(416)]
    for i, j in [(0, 1), (5, 100), (200, 300)]:
        want = 1 if g.adjacent(i, j) else 0
        assert oracles.entry(g.rows, i, j) == want
        assert oracles.entry(g.rows, j, i) == want
    assert (dense(g.rows) == np.array([column(g, i) for i in range(416)]).T).all()


def test_representation_column_shape(g):
    col = column(g, 7)
    assert len(col) == 416
    assert col[7] == 4
    assert col.count(1) == 100
    assert col.count(0) == 315


def test_pair_distance_matches_naive_oracle(g):
    y = g.rows
    rng = random.Random(1234)
    for _ in range(40):
        i, j = rng.sample(range(416), 2)
        assert oracles.pair_distance_sq(y, i, j) == naive_distance_sq(y, i, j)
    with pytest.raises(ValueError):
        oracles.pair_distance_sq(y, 5, 5)
    # y[9, 5] alone toggled: the two coordinates i and j now differ.
    bad = list(y)
    bad[5] ^= 1 << 9
    for i, j in [(5, 9), (9, 5), (5, 100), (9, 100)]:
        assert oracles.pair_distance_sq(bad, i, j) == naive_distance_sq(bad, i, j)


def test_distance_values_follow_adjacency(g):
    rng = random.Random(99)
    for _ in range(60):
        i, j = rng.sample(range(416), 2)
        want = 144 if g.adjacent(i, j) else 192
        assert oracles.pair_distance_sq(g.rows, i, j) == want


def test_distance_census_exhaustive(g, srg_params):
    census = oracles.distance_census(g.rows, g)
    assert census == {144: 20800, 192: 65520}
    assert euclid.distance_census(srg_params) == census


def gram_distances(columns) -> np.ndarray:
    """Oracle: every squared distance from an int16 Gram matrix of y.
    Entries in {0, 1, 4} bound each Gram entry by 416 * 16 and each
    distance by twice that, below 2**15."""
    e = dense(columns).astype(np.int16)
    gram = e.T @ e
    diag = np.diag(gram)
    return diag[:, None] + diag[None, :] - 2 * gram


def adjacency_matrix(g) -> np.ndarray:
    return np.array([[g.adjacent(a, b) for b in range(g.n)] for a in range(g.n)])


def test_distance_census_matches_gram_oracle(g):
    y = g.rows
    d2 = gram_distances(y)
    i, j = np.triu_indices(g.n, k=1)
    values, counts = np.unique(d2[i, j], return_counts=True)
    assert oracles.distance_census(y, g) == dict(zip(values.tolist(), counts.tolist()))
    assert ((d2[i, j] == 144) == adjacency_matrix(g)[i, j]).all()
    rng = random.Random(5)
    for a, b in (rng.sample(range(416), 2) for _ in range(40)):
        assert oracles.pair_distance_sq(y, a, b) == d2[a, b]


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1)],
        [(17, 300)],
        [(3, 4)],
        # A 2-switch: edges 200-207 and 201-206 become 200-201 and 206-207.
        # Every norm stays 116, and the first bad pair lies in a row below
        # 200, whose bits are g's.
        [(200, 207), (201, 206), (200, 201), (206, 207)],
    ],
    ids=["0-1", "17-300", "3-4", "2-switch"],
)
def test_distance_census_names_the_first_bad_pair(g, pairs):
    # The scanned census's witness must be the Gram oracle's first bad pair.
    bad = list(g.rows)
    for i, j in pairs:
        bad[i] ^= 1 << j
        bad[j] ^= 1 << i
    column_sums = set(dense(bad).sum(axis=0).tolist())
    assert len(column_sums) == (1 if len(pairs) == 4 else 2)
    d2 = gram_distances(bad)
    a, b = np.triu_indices(g.n, k=1)
    wrong = np.flatnonzero((d2[a, b] == 144) != adjacency_matrix(g)[a, b])
    first = (int(a[wrong[0]]), int(b[wrong[0]]))
    with pytest.raises(VerificationError) as exc:
        oracles.distance_census(bad, g)
    assert exc.value.witness == first + (int(d2[first]),)
    assert len(pairs) == 1 or first[0] < 200


def test_distance_census_refuses_diagonal_bits_and_asymmetry(g):
    bad = list(g.rows)
    bad[9] |= 1 << 9
    with pytest.raises(VerificationError) as exc:
        oracles.distance_census(bad, g)
    assert exc.value.witness == 9
    bad = list(g.rows)
    bad[300] ^= 1 << 17
    with pytest.raises(VerificationError, match="not symmetric") as exc:
        oracles.distance_census(bad, g)
    assert exc.value.witness == (17, 300)


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


def test_inner_product_patterns(g, part, contrasts):
    # The products derived from claim 1 are the ones counted on every column.
    p, q = contrasts
    derived = euclid.contrast_products(part)
    assert derived == {
        "p_pattern": [0, 24, -24, 0],
        "q_pattern": [48, -24, -24, 0],
        "p_dot_q": 0,
        "p_norm_sq": 64,
        "q_norm_sq": 192,
    }
    oracles.verify_inner_products(
        g.rows, p, q, part, derived["p_pattern"], derived["q_pattern"]
    )
    assert derived["p_dot_q"] == sum(a * b for a, b in zip(p, q))
    assert derived["p_norm_sq"] == sum(x * x for x in p)
    assert derived["q_norm_sq"] == sum(x * x for x in q)
    # Explicit samples of the four cases, computed naively.
    def dot(vec, col):
        return sum(a * b for a, b in zip(vec, col))

    assert dot(p, column(g, part.b1[0])) == 0
    assert dot(p, column(g, part.b2[0])) == 24
    assert dot(p, column(g, part.b3[0])) == -24
    assert dot(p, column(g, part.c[0])) == 0
    assert dot(q, column(g, part.b1[0])) == 48
    assert dot(q, column(g, part.b2[0])) == -24
    assert dot(q, column(g, part.b3[0])) == -24
    assert dot(q, column(g, part.c[0])) == 0


def test_inner_products_reject_corruption(g, part, contrasts):
    p, q = contrasts
    derived = euclid.contrast_products(part)
    bad = list(p)
    bad[part.c[0]] = 1
    with pytest.raises(VerificationError) as exc:
        oracles.verify_inner_products(
            g.rows, bad, q, part, derived["p_pattern"], derived["q_pattern"]
        )
    # The first column that sees the changed coordinate: c[0] or a neighbour.
    c0 = part.c[0]
    assert exc.value.witness == min([c0] + [i for i in range(416) if g.adjacent(i, c0)])


def test_rank_mod_prime_basics():
    prime = euclid.DEFAULT_PRIMES[0]
    assert rank_mod_prime(np.eye(10, dtype=np.int64), prime) == 10
    assert rank_mod_prime(np.zeros((5, 7), dtype=np.int64), prime) == 0
    assert rank_mod_prime([[2, 4], [1, 2]], prime) == 1
    assert rank_mod_prime([[1, 2], [3, 4]], prime) == 2


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
            got = rank_mod_prime(mat, prime)
            assert got == want


def test_rank_mod_prime_never_exceeds_rational_rank():
    rng = random.Random(21)
    for _ in range(8):
        mat = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        want = rational_rank(mat)
        assert rank_mod_prime(mat, euclid.DEFAULT_PRIMES[1]) <= want


def test_rank_mod_prime_validates_prime():
    # The principal-pivot kernel shares the check.
    for bad in (2, 91, 2**31 + 11):  # 91 = 7 * 13
        with pytest.raises(ValueError):
            rank_mod_prime([[1]], bad)
        with pytest.raises(ValueError):
            euclid.principal_prefix_ranks([[1]], bad, (1,))


def test_principal_pivots_match_elimination_on_y(g, part):
    # With no stop, in label order, the kernel reaches the rational ranks
    # that certified_dimension_chain stops at; modular ranks never exceed
    # rational ones, so none can exceed the upper bound + 1 either.
    columns = [column(g, i) for i in range(g.n)]
    natural = list(part.c + part.b1 + part.b2 + part.b3)
    stride = euclid._nested_order(part)
    assert sorted(stride[:320]) == sorted(part.c) and stride[320:] == natural[320:]
    prefixes = (320, 352, 416)
    for prime in euclid.DEFAULT_PRIMES:
        got = euclid.principal_prefix_ranks(columns, prime, prefixes, natural)
        assert got == (64, 65, 66)
        assert got == rank_mod_prime(dense(g.rows)[:, natural], prime, prefixes)
        # The order inside C changes only how soon the pivots come.
        assert euclid.principal_prefix_ranks(columns, prime, prefixes, stride) == got
        capped = euclid.principal_prefix_ranks(
            columns, prime, prefixes, stride, caps=(64, 65, 66)
        )
        assert capped == got


def test_caps_stop_each_prefix():
    # A prefix stops at its cap and the next prefix starts after it, even
    # where the skipped indices hold pivots.
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    prime = euclid.DEFAULT_PRIMES[0]
    assert euclid.principal_prefix_ranks(eye, prime, (2, 4), caps=(1, 3)) == (1, 3)
    assert euclid.principal_prefix_ranks(eye, prime, (4, 2), caps=(9, 9)) == (4, 2)


def test_stride_order_finds_the_c_pivots_first(g, part):
    columns = [column(g, i) for i in range(g.n)]
    natural = list(part.c + part.b1 + part.b2 + part.b3)
    stride = euclid._nested_order(part)
    for prime in euclid.DEFAULT_PRIMES:
        assert euclid.principal_prefix_ranks(columns, prime, (64,), stride) == (64,)
        assert euclid.principal_prefix_ranks(columns, prime, (64, 289), natural) == (39, 64)


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
        assert cert.linear_rank == cert.affine_dim + 1
        assert cert.upper_argument
    # One prime's pivot counts; no per-prime bounds.
    assert list(euclid.DimensionCertificate._fields) == [
        "label", "size", "affine_dim", "linear_rank", "upper_argument"
    ]


def test_dimension_chain_respects_prime_override(g, part, spectrum, certificates):
    # One prime is enough, and the first listed that settles the chain is
    # the one used.
    for primes in ((1_000_003,), (1_000_003, 999_983), (999_983, 1_000_003)):
        prime, certs = euclid.certified_dimension_chain(g, part, spectrum, primes)
        assert prime == primes[0]
        assert certs == certificates


def test_dimension_chain_falls_back_past_a_prime_that_falls_short(g, part, spectrum):
    # Mod 3 the pivots on V stop at 65, one short of the upper bound + 1;
    # 3 is the only prime below 400 that falls short on y.
    with pytest.raises(InconclusiveError) as exc:
        euclid.certified_dimension_chain(g, part, spectrum, primes=(3,))
    assert "3 gives [65, 65, 64]" in str(exc.value)
    prime, certs = euclid.certified_dimension_chain(g, part, spectrum, primes=(3, 5))
    assert prime == 5
    assert [c.linear_rank for c in certs] == [66, 65, 64]
