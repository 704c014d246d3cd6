"""Property tests: the prefix ranks of the reference modular elimination
`oracles.rank_mod_prime`, and the principal-pivot lower bounds of the
modular dimension-chain oracle, against the exact rational oracle
`oracles.rational_rank` on small integer matrices.  The kernel runs with no
stop, except where a test says otherwise."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402


@st.composite
def matrices_and_cuts(draw):
    """An m x n integer matrix of rank at most r (a product of m x r and
    r x n factors, so rank-deficient ones are common) plus prefix cuts."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    entry = st.integers(-5, 5)

    def rows(count, width):
        return st.lists(
            st.lists(entry, min_size=width, max_size=width),
            min_size=count,
            max_size=count,
        )

    a = draw(rows(m, r))
    b = draw(rows(r, n))
    mat = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
    cuts = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=4)))
    return mat, cuts


@settings(max_examples=150, deadline=None)
@given(matrices_and_cuts())
def test_prefix_ranks_match_rational_rank(case):
    mat, cuts = case
    want = tuple(oracles.rational_rank([row[:k] for row in mat]) for k in cuts)
    for prime in oracles.PRIMES:
        assert oracles.rank_mod_prime(mat, prime, cuts) == want
        assert oracles.rank_mod_prime(mat, prime) == oracles.rational_rank(mat)


@st.composite
def gram_matrices_and_cuts(draw):
    """Z Z^T for an n x r integer Z: symmetric positive semidefinite, of rank
    at most r (often less than n), plus prefix cuts."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    z = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=r, max_size=r),
            min_size=n,
            max_size=n,
        )
    )
    mat = [[sum(z[i][t] * z[j][t] for t in range(r)) for j in range(n)] for i in range(n)]
    cuts = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=4)))
    return mat, cuts


@st.composite
def symmetric_matrices_and_cuts(draw):
    """Z S Z^T for an n x r integer Z and a diagonal S of signs: symmetric,
    indefinite when S mixes signs, of rank at most r, plus prefix cuts."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    z = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r),
            min_size=n,
            max_size=n,
        )
    )
    sign = draw(st.lists(st.sampled_from((-1, 1)), min_size=r, max_size=r))
    mat = [
        [sum(z[i][t] * sign[t] * z[j][t] for t in range(r)) for j in range(n)]
        for i in range(n)
    ]
    cuts = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=4)))
    return mat, cuts


@settings(max_examples=150, deadline=None)
@given(gram_matrices_and_cuts())
def test_principal_pivots_reach_rank_of_psd_matrices(case):
    mat, cuts = case
    want = tuple(oracles.rational_rank([row[:k] for row in mat]) for k in cuts)
    for prime in oracles.PRIMES:
        assert oracles.principal_prefix_ranks(mat, prime, cuts) == want
        assert oracles.rank_mod_prime(mat, prime, cuts) == want


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices_and_cuts())
def test_principal_pivots_never_exceed_rank(case):
    mat, cuts = case
    want = tuple(oracles.rational_rank([row[:k] for row in mat]) for k in cuts)
    # Small primes divide pivots often; the bound must stay sound for them.
    for prime in oracles.PRIMES + (3, 5):
        got = oracles.principal_prefix_ranks(mat, prime, cuts)
        assert all(g <= w for g, w in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(gram_matrices_and_cuts())
def test_principal_pivots_stopped_at_the_rank_still_reach_it(case):
    # modular_dimension_chain stops each prefix at its rank; the pivots
    # skipped are not needed by later prefixes.
    mat, cuts = case
    want = tuple(oracles.rational_rank([row[:k] for row in mat]) for k in cuts)
    for prime in oracles.PRIMES:
        assert oracles.principal_prefix_ranks(mat, prime, cuts, caps=want) == want
