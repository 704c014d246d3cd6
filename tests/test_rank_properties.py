"""Property tests of `oracles.exact_column_rank`, the two-sided rank
certificate that test_c08_dimension_chain runs on y: it agrees with the
exact rational oracle `oracles.rational_rank` on small integer matrices,
and what it cannot certify it refuses, never returning a wrong rank."""

from contextlib import suppress

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from g24verify import VerificationError, graph  # noqa: E402

import oracles  # noqa: E402


@st.composite
def matrices_and_columns(draw):
    """An m x n integer matrix z, half the time with entries large enough
    that the certificate leaves int64, and otherwise also its Gram matrix
    z z^T, symmetric positive semidefinite of rank at most n; each with a
    list of distinct columns."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    small = draw(st.booleans())
    entry = st.integers(-4, 4) if small else st.integers(-(2**40), 2**40)
    z = np.array(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    gram = z @ z.T if small else None
    cols = draw(st.lists(st.integers(0, n - 1), unique=True))
    gram_cols = draw(st.lists(st.integers(0, m - 1), unique=True))
    return z, cols, gram, gram_cols


@settings(max_examples=150, deadline=None)
@given(matrices_and_columns())
def test_exact_column_rank_matches_rational_rank(case):
    z, cols, gram, gram_cols = case
    if gram is not None:
        want = oracles.rational_rank(gram[:, gram_cols].tolist())
        assert oracles.exact_column_rank(gram, gram_cols) == want
    # On any integer matrix the rank is right or refused, even with the
    # pivots chosen mod 3, which often divides a minor the rank needs.
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
