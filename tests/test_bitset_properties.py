"""Property tests: the bit-sliced graph build and the bit-matrix transpose
against reference implementations, and the clique search oracle against
networkx, on random inputs from hypothesis."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from g24verify import graph  # noqa: E402

import oracles  # noqa: E402


def _mask(points) -> int:
    return sum(1 << a for a in points)


# A failing example is already three integers; shrinking it would rerun
# the 86,320-pair oracle many times for little gain.
@settings(max_examples=20, deadline=None, phases=[Phase.reuse, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 50),
    swaps=st.integers(0, 50),
)
def test_build_graph_matches_the_pairwise_oracle(seed, copies, swaps):
    rng = random.Random(seed)
    isosets = [_mask(rng.sample(range(1, 66), 15)) for _ in range(416)]
    # A copied iso-set meets its original in 15 points, all four counter
    # planes set; one member swapped for a non-member leaves 14.
    for _ in range(copies):
        isosets[rng.randrange(416)] = isosets[rng.randrange(416)]
    for _ in range(swaps):
        s = isosets[rng.randrange(416)]
        out = rng.choice([a for a in range(1, 66) if s >> a & 1])
        into = rng.choice([a for a in range(1, 66) if not s >> a & 1])
        isosets[rng.randrange(416)] = s ^ (1 << out | 1 << into)
    got, columns = graph.build_graph(isosets)
    assert got == oracles.build_graph(isosets)[0]
    assert columns == graph.point_columns(isosets)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 80), st.just(416)),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_bit_transposer_matches_a_naive_transpose(n, seed, density):
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
    naive = [sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n)]
    assert graph.bit_transposer(n)(rows) == naive


@st.composite
def graphs(draw, max_n=18):
    n = draw(st.integers(0, max_n))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


@settings(max_examples=100, deadline=None)
@given(rows=graphs())
def test_max_clique_in_matches_networkx(rows):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(len(rows)))
    h.add_edges_from(graph.edges(rows))
    want = max((len(c) for c in nx.find_cliques(h)), default=0)
    size, witness = oracles.max_clique_in(rows, (1 << len(rows)) - 1, 0, [0])
    assert size == want == len(witness)
    assert all(rows[u] >> v & 1 for u in witness for v in witness if u != v)
