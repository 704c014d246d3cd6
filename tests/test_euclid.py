"""Representation matrix, distances, contrasts, and rank certificates.

y = A + 4I lives only in the graph: the program reads its columns through
`graph.column_digits`, and the oracles take A's rows as y's column ints.
numpy is a test dependency only: it gives the reference elimination
`oracles.rank_mod_prime`, the Gram-matrix oracle of the distance census,
which must give the pinned census that the scan in `oracles` gives, and the
cubic identity of the graph on C on every row.  The modular LDL^T in
`oracles` keeps the paper's own route to the dimension chain (arXiv
1308.0206) checked against the program's exact one."""

import random
import re

import numpy as np
import pytest

from g24verify import VerificationError, graph

import oracles


def column(rows, i) -> list[int]:
    """Column i of y = A + 4I as the program reads it."""
    return [int(d) for d in graph.column_digits(rows, i)]


def dense(columns) -> np.ndarray:
    """y as an int64 array from its column ints, entry [t, i] read from
    column i, with 4 on the diagonal."""
    bits = oracles.bit_strings(columns, len(columns))
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


def test_representation_entries(rows):
    for i in range(0, 416, 41):
        assert oracles.entry(rows, i, i) == 4
        assert sum(column(rows, i)) == 104
        assert column(rows, i) == [oracles.entry(rows, t, i) for t in range(416)]
    for i, j in [(0, 1), (5, 100), (200, 300)]:
        want = 1 if rows[i] >> j & 1 else 0
        assert oracles.entry(rows, i, j) == want
        assert oracles.entry(rows, j, i) == want
    assert (dense(rows) == np.array([column(rows, i) for i in range(416)]).T).all()


def test_representation_column_shape(rows):
    col = column(rows, 7)
    assert len(col) == 416
    assert col[7] == 4
    assert col.count(1) == 100
    assert col.count(0) == 315


def test_pair_distance_matches_naive_oracle(rows):
    y = rows
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


def test_distance_values_follow_adjacency(rows):
    rng = random.Random(99)
    for _ in range(60):
        i, j = rng.sample(range(416), 2)
        want = 144 if rows[i] >> j & 1 else 192
        assert oracles.pair_distance_sq(rows, i, j) == want


def gram_distances(columns) -> np.ndarray:
    """Oracle: every squared distance from an int16 Gram matrix of y.
    Entries in {0, 1, 4} bound each Gram entry by 416 * 16 and each
    distance by twice that, below 2**15."""
    e = dense(columns).astype(np.int16)
    gram = e.T @ e
    diag = np.diag(gram)
    return diag[:, None] + diag[None, :] - 2 * gram


def adjacency_matrix(rows) -> np.ndarray:
    n = len(rows)
    return np.array([[rows[a] >> b & 1 for b in range(n)] for a in range(n)])


def test_distance_census_matches_gram_oracle(rows):
    # The scanned census equals the pinned one (test_c05_distance_dichotomy).
    y = rows
    d2 = gram_distances(y)
    i, j = np.triu_indices(len(rows), k=1)
    values, counts = np.unique(d2[i, j], return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == graph.DISTANCE_CENSUS
    assert ((d2[i, j] == 144) == adjacency_matrix(rows)[i, j]).all()
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
        # 200, whose bits are the graph's.
        [(200, 207), (201, 206), (200, 201), (206, 207)],
    ],
    ids=["0-1", "17-300", "3-4", "2-switch"],
)
def test_distance_census_names_the_first_bad_pair(rows, pairs):
    # The scanned census's witness must be the Gram oracle's first bad pair.
    bad = list(rows)
    for i, j in pairs:
        bad[i] ^= 1 << j
        bad[j] ^= 1 << i
    column_sums = set(dense(bad).sum(axis=0).tolist())
    assert len(column_sums) == (1 if len(pairs) == 4 else 2)
    d2 = gram_distances(bad)
    a, b = np.triu_indices(len(rows), k=1)
    wrong = np.flatnonzero((d2[a, b] == 144) != adjacency_matrix(rows)[a, b])
    first = (int(a[wrong[0]]), int(b[wrong[0]]))
    with pytest.raises(VerificationError) as exc:
        oracles.distance_census(bad, rows)
    assert exc.value.witness == first + (int(d2[first]),)
    assert len(pairs) == 1 or first[0] < 200


def test_distance_census_refuses_diagonal_bits_and_asymmetry(rows):
    bad = list(rows)
    bad[9] |= 1 << 9
    with pytest.raises(VerificationError) as exc:
        oracles.distance_census(bad, rows)
    assert exc.value.witness == 9
    bad = list(rows)
    bad[300] ^= 1 << 17
    with pytest.raises(VerificationError, match="not symmetric") as exc:
        oracles.distance_census(bad, rows)
    assert exc.value.witness == (17, 300)


def test_contrast_vectors(part, contrasts):
    p, q = contrasts
    assert sum(p) == 0 and sum(q) == 0
    assert sum(x * x for x in p) == 64
    assert sum(x * x for x in q) == 192
    assert sum(a * b for a, b in zip(p, q)) == 0
    want = [(0, 2), (1, -1), (-1, -1), (0, 0)]  # on B1, B2, B3, C
    for mask, (p_value, q_value) in zip(part, want):
        for i in oracles.vertices(mask):
            assert p[i] == p_value and q[i] == q_value


def test_inner_product_patterns(rows, part, contrasts, full_report):
    # test_c07_contrast_products counts the patterns on every column.
    p, q = contrasts
    products = oracles.stage(full_report, "dimension-chain").detail["contrast_products"]
    assert products["p_norm_sq"] == sum(x * x for x in p)
    assert products["q_norm_sq"] == sum(x * x for x in q)
    # Explicit samples of the four cases, computed naively.
    def dot(vec, col):
        return sum(a * b for a, b in zip(vec, col))

    b1, b2, b3, c = (oracles.vertices(mask)[0] for mask in part)
    assert dot(p, column(rows, b1)) == 0
    assert dot(p, column(rows, b2)) == 24
    assert dot(p, column(rows, b3)) == -24
    assert dot(p, column(rows, c)) == 0
    assert dot(q, column(rows, b1)) == 48
    assert dot(q, column(rows, b2)) == -24
    assert dot(q, column(rows, b3)) == -24
    assert dot(q, column(rows, c)) == 0


def test_dimension_chain_argument_states_the_checked_numbers(full_report, rows, part):
    # The argument's prose states numbers that no stage reports: the
    # hyperplane's constant must be the srg stage's column sum, and the two
    # contrast values the entries of the patterns that
    # test_c07_contrast_products counts on every column.  C's argument
    # states the degree of A_C and its trace, both counted here on every row
    # of C, the constant of its cubic identity, which that degree and |C|
    # fix, and the shift of rank(A_C + 4I), which is y's diagonal.
    column_sum = oracles.stage(full_report, "srg").detail["column_sum"]
    chain = oracles.stage(full_report, "dimension-chain").detail
    products = chain["contrast_products"]
    for cert in chain["certificates"]:
        (constant,) = re.findall(r"<1, y_i> = (-?\d+)", " ".join(cert["argument"]))
        assert int(constant) == column_sum
    c_b1 = next(c for c in chain["certificates"] if c["set"] == "C+B1")
    q_claim, p_claim = c_b1["argument"][:2]
    q_value, q_block = re.search(r"<q, y_j> = (-?\d+) on (\w+)", q_claim).groups()
    p_value, p_block = re.search(r"<p, y_j> = (-?\d+) on (\w+)", p_claim).groups()
    blocks = ["B1", "B2", "B3", "C"]
    assert int(q_value) == products["q_pattern"][blocks.index(q_block)]
    assert int(p_value) == products["p_pattern"][blocks.index(p_block)]
    c_cert = next(c for c in chain["certificates"] if c["set"] == "C")
    c_text = " ".join(c_cert["argument"])
    c = oracles.vertices(part.c)
    (degree,) = {(rows[v] & part.c).bit_count() for v in c}
    assert re.search(r"A_C is (\d+)-regular", c_text).group(1) == str(degree)
    loops = sum(rows[v] >> v & 1 for v in c)
    assert re.search(r"with trace (\d+)", c_text).group(1) == str(loops)
    assert graph.C_SPECTRUM[degree] == 1
    constant = re.search(r"\(A_C - 16\)\(A_C - 12\)\(A_C \+ 4\) = (\d+) J", c_text)
    assert int(constant.group(1)) * len(c) == (degree - 16) * (degree - 12) * (degree + 4)
    shift, rank = re.search(r"rank\(A_C \+ (\d+)I\) = (\d+)", c_text).groups()
    assert graph.column_digits(rows, c[0])[c[0]] == shift
    assert int(rank) == c_cert["linear_rank"] == len(c) - graph.C_SPECTRUM[-int(shift)]


def test_inner_products_reject_corruption(rows, part, contrasts, full_report):
    p, q = contrasts
    products = oracles.stage(full_report, "dimension-chain").detail["contrast_products"]
    c0 = oracles.vertices(part.c)[0]
    bad = list(p)
    bad[c0] = 1
    with pytest.raises(VerificationError) as exc:
        oracles.verify_inner_products(
            rows, bad, q, part, products["p_pattern"], products["q_pattern"]
        )
    # The first column that sees the changed coordinate: c0 or a neighbour.
    neighbours = [i for i in range(416) if rows[i] >> c0 & 1]
    assert exc.value.witness == min([c0] + neighbours)


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
    columns = [column(rows, i) for i in range(len(rows))]
    blocks = (part.c, part.b1, part.b2, part.b3)
    natural = [v for mask in blocks for v in oracles.vertices(mask)]
    stride = oracles.nested_order(part)
    assert sorted(stride[:320]) == natural[:320] and stride[320:] == natural[320:]
    prefixes = (320, 352, 416)
    for prime in oracles.PRIMES:
        got = oracles.principal_prefix_ranks(columns, prime, prefixes, natural)
        assert got == (64, 65, 66)
        assert got == oracles.rank_mod_prime(dense(rows)[:, natural], prime, prefixes)
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
    columns = [column(rows, i) for i in range(len(rows))]
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


def test_dimension_chain_certificates(certificates):
    # The ranks are test_c08_dimension_chain's.
    by_set = {c["set"]: c for c in certificates}
    assert set(by_set) == {"V", "C+B1", "C"}
    assert by_set["V"]["size"] == 416
    assert by_set["C+B1"]["size"] == 352
    assert by_set["C"]["size"] == 320
    for cert in certificates:
        # Exact ranks with their argument; no prime and no pivot counts.
        assert list(cert) == ["set", "size", "affine_dim", "linear_rank", "argument"]
        assert cert["argument"]


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


def test_c_spectrum_solves_the_trace_equations():
    # 76 and the roots of (x - 16)(x - 12)(x + 4), with multiplicities that
    # count 320 vertices, give tr A_C = 0 and tr A_C^2 = 320 * 76.
    spectrum = graph.C_SPECTRUM
    assert sum(spectrum.values()) == 320
    assert sum(t * m for t, m in spectrum.items()) == 0
    assert sum(t * t * m for t, m in spectrum.items()) == 320 * 76
    assert {t for t in spectrum if (t - 16) * (t - 12) * (t + 4)} == {76}
    assert (76 - 16) * (76 - 12) * (76 + 4) == 960 * 320
    # The three equations in the multiplicities of 16, 12 and -4, once 76
    # is simple, have one solution: their determinant is not 0.
    (a, b, c), (d, e, f), (g, h, i) = [1, 1, 1], [16, 12, -4], [256, 144, 16]
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == -1280


def a_c(rows, part) -> np.ndarray:
    """The adjacency of the graph induced on C, as an int64 array."""
    c = oracles.vertices(part.c)
    return dense(rows)[np.ix_(c, c)] - 4 * np.eye(len(c), dtype=np.int64)


def test_c_identity_holds_on_every_row(rows, part):
    # The program checks row c0 and carries it by the words; here every
    # entry of (A_C - 16)(A_C - 12)(A_C + 4) is computed.
    a = a_c(rows, part)
    eye = np.eye(part.c.bit_count(), dtype=np.int64)
    product = (a - 16 * eye) @ (a - 12 * eye) @ (a + 4 * eye)
    assert (product == 960).all()
    assert (a.sum(axis=0) == 76).all()
    graph.verify_c_identity(rows, part)


@pytest.mark.parametrize("u_offset", [1, 200], ids=["c1", "c200"])
def test_c_identity_refuses_a_tampered_row(rows, part, u_offset):
    # The pair (c0, u) of C flipped: the direct call names the first entry
    # of row c0 of the cubic that is no longer 960, as the array finds it.
    c = oracles.vertices(part.c)
    c0, u = c[0], c[u_offset]
    tampered = list(rows)
    graph.flip_edge(tampered, c0, u)
    with pytest.raises(VerificationError, match=r"\(A_C - 16\)") as err:
        graph.verify_c_identity(tampered, part)
    a = a_c(tampered, part)
    eye = np.eye(320, dtype=np.int64)
    row = eye[0] @ (a - 16 * eye) @ (a - 12 * eye) @ (a + 4 * eye)
    assert err.value.witness == c[int(np.flatnonzero(row != 960)[0])]
