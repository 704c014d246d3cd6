"""Property tests: the graph build from side sums and the bit-matrix
transpose against reference implementations, the witnesses of the packed
symmetry and map checks, and the clique search oracle against networkx, on
random inputs from hypothesis."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from g24verify import VerificationError, graph  # noqa: E402

import oracles  # noqa: E402


def _mask(points) -> int:
    return sum(1 << a for a in points)


def _vertex(rng: random.Random) -> tuple[int, int, int]:
    """Three disjoint sides of 5 random points."""
    points = rng.sample(range(1, 66), 15)
    return _mask(points[:5]), _mask(points[5:10]), _mask(points[10:])


# A failing example is already four integers; shrinking it would rerun
# the 86,320-pair oracle many times for little gain.
@settings(max_examples=20, deadline=None, phases=[Phase.reuse, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 50),
    shares=st.integers(0, 50),
    swaps=st.integers(0, 50),
)
def test_build_graph_matches_the_pairwise_oracle(seed, copies, shares, swaps):
    rng = random.Random(seed)
    sides = [_vertex(rng) for _ in range(416)]
    # A copied vertex meets its original in 15 points, three side sums of
    # 5; a side shared with another vertex has its sum read by both; one
    # member swapped for a non-member leaves 14.
    for _ in range(copies):
        sides[rng.randrange(416)] = sides[rng.randrange(416)]
    for _ in range(shares):
        side = rng.choice(sides[rng.randrange(416)])
        rest = rng.sample([a for a in range(1, 66) if not side >> a & 1], 10)
        others = [_mask(rest[:5]), _mask(rest[5:])]
        others.insert(rng.randrange(3), side)
        sides[rng.randrange(416)] = tuple(others)
    for _ in range(swaps):
        vertex = list(sides[rng.randrange(416)])
        union = vertex[0] | vertex[1] | vertex[2]
        k = rng.randrange(3)
        out = rng.choice([a for a in range(1, 66) if vertex[k] >> a & 1])
        into = rng.choice([a for a in range(1, 66) if not union >> a & 1])
        vertex[k] ^= 1 << out | 1 << into
        sides[rng.randrange(416)] = tuple(vertex)
    isosets = [a | b | c for a, b, c in sides]
    got, columns = graph.build_graph(sides)
    assert got == oracles.build_graph(isosets)[0]
    assert columns == graph.point_columns(isosets)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 80), st.integers(1, 80)),
        st.sampled_from([(416, 416), (416, 66), (66, 416)]),
    ),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_bit_transposer_matches_a_naive_transpose(shape, seed, density):
    m, n = shape
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(m)]
    naive = [sum((rows[i] >> j & 1) << i for i in range(m)) for j in range(n)]
    assert graph.bit_transposer(graph.packed(rows, n), n) == graph.packed(naive, m)


def _digraph(rng: random.Random, n: int, symmetric: bool) -> list[int]:
    """A random loop-free graph on n vertices, its arcs symmetric or not."""
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                rows[i] |= 1 << j
                if symmetric:
                    rows[j] |= 1 << i
    return rows


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
)
def test_packed_checks_name_the_first_witness(n, seed, symmetric):
    # The symmetry check names the first (i, j) in row order with
    # A[i, j] != A[j, i]; the map check the first (j, i) in row order with
    # A[j, i] = 1 and A[perm[i], perm[j]] = 0, read off ints as before the
    # comparisons were made on packed bytes.
    rng = random.Random(seed)
    # A circulant digraph, relabelled: no loops and every degree the same,
    # so the symmetry check is the first that can refuse it.
    steps = [s for s in range(1, n) if rng.random() < 0.3]
    label = rng.sample(range(n), n)
    rows = [0] * n
    for i in range(n):
        for s in steps:
            rows[label[i]] |= 1 << label[(i + s) % n]
    asymmetric = [
        (i, j) for i in range(n) for j in range(n) if (rows[i] >> j ^ rows[j] >> i) & 1
    ]
    if asymmetric:
        with pytest.raises(VerificationError, match="asymmetric") as err:
            graph.verify_srg(rows, [])
        assert err.value.witness == asymmetric[0]

    rows = _digraph(rng, n, symmetric)
    perm = rng.sample(range(n), n)
    lost = [
        (j, i)
        for j in range(n)
        for i in range(n)
        if rows[j] >> i & 1 and not rows[perm[i]] >> perm[j] & 1
    ]
    if lost:
        with pytest.raises(VerificationError, match="non-edge") as err:
            graph._verify_automorphism(rows, perm)
        assert err.value.witness == lost[0]
    else:
        graph._verify_automorphism(rows, perm)


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
