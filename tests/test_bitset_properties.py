"""Property tests: the graph build from side sums and the bit-matrix
transpose against reference implementations, the witnesses of the packed
symmetry and map checks, and the clique search oracle against networkx.

Each test loops over the seeds of a literal range, draws its inputs from
`random.Random(seed)` and names the seed in any failure, so every run reads
the same inputs.  The cases at the ends of the ranges drawn from are given
to the first seeds explicitly."""

import random

import networkx as nx
import pytest

from g24verify import VerificationError, graph

import oracles


def _mask(points) -> int:
    return sum(1 << a for a in points)


def _vertex(rng: random.Random) -> tuple[int, int, int]:
    """Three disjoint sides of 5 random points."""
    points = rng.sample(range(1, 66), 15)
    return _mask(points[:5]), _mask(points[5:10]), _mask(points[10:])


def test_build_graph_matches_the_pairwise_oracle():
    # Seed 0 takes no copies, shares or swaps, seed 1 takes 50 of each, and
    # the others draw each count from 0 to 50.
    for seed in range(20):
        with oracles.seed_named(seed):
            rng = random.Random(seed)
            sides = [_vertex(rng) for _ in range(416)]
            if seed < 2:
                copies = shares = swaps = 50 * seed
            else:
                copies, shares, swaps = (rng.randint(0, 50) for _ in range(3))
            # A copied vertex meets its original in 15 points, three side
            # sums of 5; a side shared with another vertex has its sum read
            # by both; one member swapped for a non-member leaves 14.
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


def test_bit_transposer_matches_a_naive_transpose():
    # Seed k has density densities[k % 5].  Seeds 0 to 4 take 1 x 1, the
    # three shapes the program transposes and 80 x 80; the others take one
    # of those three a quarter of the time, else m x n with sides from 1
    # to 80.
    program = [(416, 416), (416, 66), (66, 416)]
    first = [(1, 1), *program, (80, 80)]
    densities = [0.0, 0.1, 0.5, 0.9, 1.0]
    for seed in range(60):
        with oracles.seed_named(seed):
            rng = random.Random(seed)
            if seed < 5:
                m, n = first[seed]
            elif rng.random() < 0.25:
                m, n = rng.choice(program)
            else:
                m, n = rng.randint(1, 80), rng.randint(1, 80)
            density = densities[seed % 5]
            rows = [
                sum(1 << j for j in range(n) if rng.random() < density)
                for _ in range(m)
            ]
            naive = [sum((rows[i] >> j & 1) << i for i in range(m)) for j in range(n)]
            got = graph.bit_transposer(graph.packed(rows, n), n)
            assert got == graph.packed(naive, m)


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


def test_packed_checks_name_the_first_witness():
    # The symmetry check names the first (i, j) in row order with
    # A[i, j] != A[j, i]; the map check the first (j, i) in row order with
    # A[j, i] = 1 and A[perm[i], perm[j]] = 0, read off ints as before the
    # comparisons were made on packed bytes.  A map passes exactly when it
    # loses no edge, which on a symmetric A makes it an automorphism.
    # Even seeds draw symmetric graphs, odd ones draw each arc alone.
    # Seeds 0 to 3 take n = 1 and n = 40; the next 300 draw n from 1 to 8,
    # where a map often passes, and the rest from 1 to 40.
    for seed in range(500):
        with oracles.seed_named(seed):
            rng = random.Random(seed)
            if seed < 4:
                n = 1 if seed < 2 else 40
            else:
                n = rng.randint(1, 8 if seed < 304 else 40)
            # A circulant digraph, relabelled: no loops and every degree the
            # same, so the symmetry check is the first that can refuse it.
            steps = [s for s in range(1, n) if rng.random() < 0.3]
            label = rng.sample(range(n), n)
            rows = [0] * n
            for i in range(n):
                for s in steps:
                    rows[label[i]] |= 1 << label[(i + s) % n]
            asymmetric = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if (rows[i] >> j ^ rows[j] >> i) & 1
            ]
            if asymmetric:
                with pytest.raises(VerificationError, match="asymmetric") as err:
                    graph.verify_srg(rows, [])
                assert err.value.witness == asymmetric[0]

            rows = _digraph(rng, n, symmetric=seed % 2 == 0)
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


def test_max_clique_in_matches_networkx():
    # Each pair of vertices is an edge with probability 1/2.  Seeds 0 and 1
    # take n = 0 and n = 18, the others draw n from 0 to 18.
    for seed in range(100):
        with oracles.seed_named(seed):
            rng = random.Random(seed)
            n = 18 * seed if seed < 2 else rng.randint(0, 18)
            rows = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(graph.edges(rows))
            want = max((len(c) for c in nx.find_cliques(h)), default=0)
            size, witness = oracles.max_clique_in(rows, (1 << n) - 1, 0, [0])
            assert size == want == len(witness)
            assert all(rows[u] >> v & 1 for u in witness for v in witness if u != v)
