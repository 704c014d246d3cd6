"""Graph construction, strong regularity, spectrum, and the B/C split;
then the euclid section: the representation y = A + 4I, its distances, the
contrast vectors, the dimension chain's argument and the cubic identity on
C; then the cliques: the clique number, special cliques, exact covers, and
the final bounds."""

import random
import re
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from g24verify import VerificationError, graph, hermitian, pipeline

import oracles

PETERSEN_VERTICES = list(combinations(range(5), 2))


def petersen() -> list[int]:
    """Kneser graph on 2-subsets of a 5-set, disjointness adjacency."""
    verts = PETERSEN_VERTICES
    rows = [0] * 10
    for i in range(10):
        for j in range(i + 1, 10):
            if not set(verts[i]) & set(verts[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def petersen_generators() -> list[list[int]]:
    """The 5-cycle and the transposition (0 1), which generate S5, acting
    on the 2-subsets."""
    index = {v: t for t, v in enumerate(PETERSEN_VERTICES)}
    return [
        [index[tuple(sorted(s[x] for x in v))] for v in PETERSEN_VERTICES]
        for s in ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))
    ]


def halved_5cube_generators() -> list[list[int]]:
    """Translation by 00011 and the cyclic shift of the coordinates; with
    the shift, the translation's conjugates reach every even-weight word."""
    words = [w for w in range(32) if bin(w).count("1") % 2 == 0]
    index = {w: t for t, w in enumerate(words)}
    shift = [index[(w << 1 | w >> 4) & 31] for w in words]
    return [[index[w ^ 0b00011] for w in words], shift]


def test_build_graph_matches_the_pairwise_oracle(rows, isosets):
    h, dist = oracles.build_graph(isosets)
    assert h == rows
    assert dist == oracles.INTERSECTION_SIZES


def test_build_graph_validates_input(sides):
    with pytest.raises(VerificationError, match="expected 416 iso-sets") as err:
        graph.build_graph(sides[:-1])
    assert err.value.witness == 415
    broken = list(sides)
    broken[0] = (0b111, 0, 0)
    with pytest.raises(VerificationError):
        graph.build_graph(broken)
    a, b, c = sides[0]
    # Fifteen members, but one of them is not an isotropic point.
    for outside in (0, 66):
        broken[0] = (a ^ (a & -a) | 1 << outside, b, c)
        with pytest.raises(VerificationError, match="outside 1..65") as err:
            graph.build_graph(broken)
        assert err.value.witness == 0
    # Sixteen isotropic points.
    extra = next(x for x in range(1, 66) if not (a | b | c) >> x & 1)
    broken[0] = (a | 1 << extra, b, c)
    with pytest.raises(VerificationError, match="iso-set 0 has 16 members") as err:
        graph.build_graph(broken)
    assert err.value.witness == 0
    # Three sides of 5 that share a point: only the member count refuses
    # them, and it is what makes the sums of a vertex's sides add up to its
    # intersections.
    for overlap, size in (((a, a, c), 10), ((a, b, c ^ (c & -c) | (a & -a)), 14)):
        broken[0] = overlap
        message = f"iso-set 0 has {size} members"
        with pytest.raises(VerificationError, match=message) as err:
            graph.build_graph(broken)
        assert err.value.witness == 0


def test_point_columns_transpose_the_isosets(isosets, columns):
    assert graph.point_columns(isosets) == columns  # build_graph's columns
    assert len(columns) == 66 and columns[0] == 0
    for a in range(1, 66):
        assert columns[a] == sum(1 << i for i, s in enumerate(isosets) if s >> a & 1)
        assert columns[a].bit_count() == 96  # 416 * 15 / 65


def test_every_two_isotropic_points_share_an_isoset(columns):
    # The lift refuses every point map that is no permutation because of it.
    assert all(columns[a] & columns[b] for a, b in combinations(range(1, 66), 2))


def test_point_maps_are_the_isometries_on_the_isotropic_points(
    plane, columns, point_maps, automorphisms
):
    assert len(point_maps) == len(hermitian.ISOMETRIES)
    number = oracles.iso_number(plane)
    for sigma, m in zip(point_maps, hermitian.ISOMETRIES):
        image = [hermitian.normalize(hermitian._apply(m, p)) for p in plane[1]]
        assert sigma == [number[q] - 1 for q in image]
    # Each lift sends point column a onto point column sigma(a).
    for sigma, perm in zip(point_maps, automorphisms):
        for a, b in enumerate(sigma):
            moved = sum(1 << perm[v] for v in range(416) if columns[a + 1] >> v & 1)
            assert moved == columns[b + 1]


def test_point_action_refuses_a_second_orbit_and_a_lost_column(
    isosets, columns, point_maps, automorphisms
):
    # The swap's point map alone leaves more than one orbit on the points.
    # An srg stage given only this map would refuse its lift first (vertex
    # orbits), so the stage is called with it directly.
    art = pipeline.Artifacts()
    art.point_maps = point_maps[:1]
    with pytest.raises(VerificationError, match="orbits on the points") as err:
        pipeline._stage_anchor_invariance(art, pipeline.RunConfig())
    assert err.value.witness == min(set(range(65)) - oracles.orbit(point_maps[:1], 0)) + 1
    # Moving vertex 7 from the column of its first member to a non-member's
    # makes its iso-set S' one that no basis has (it meets the old one in 14
    # points), and leaves the old one S with no vertex.  Each map sends S'
    # and the iso-set it moves onto S to no iso-set, so the first map
    # refuses the first of vertex 7 and the vertex it sends to 7.
    a = (isosets[7] & -isosets[7]).bit_length() - 1
    b = next(b for b in range(2, 66) if not isosets[7] >> b & 1)
    broken, broken_isosets = list(columns), list(isosets)
    broken[a] ^= 1 << 7
    broken[b] ^= 1 << 7
    broken_isosets[7] ^= 1 << a | 1 << b
    with pytest.raises(VerificationError, match="to no iso-set") as err:
        graph.vertex_permutations(broken_isosets, broken, point_maps)
    assert err.value.witness == (0, min(7, automorphisms[0].index(7)))


def test_lift_refuses_a_point_map_that_is_no_permutation(isosets, columns, point_maps):
    # The second map with points 1 and 2 sent to one point: the first
    # vertex whose iso-set holds both gets an image of 14 members, unless a
    # vertex before it already has an image that is no iso-set.
    merged = list(point_maps[1])
    merged[1] = merged[0]
    with pytest.raises(VerificationError, match="to no iso-set") as err:
        graph.vertex_permutations(isosets, columns, [point_maps[0], merged])
    m, v = err.value.witness
    assert m == 1
    assert v <= min(u for u, s in enumerate(isosets) if s & 0b110 == 0b110)


def test_stabilizer_words_fix_c_with_one_orbit(rows, automorphisms, part):
    maps = graph.stabilizer(automorphisms, graph.STABILIZER_WORDS, part.c)
    c = oracles.vertices(part.c)
    a, b = automorphisms
    for word, perm in zip(graph.STABILIZER_WORDS, maps):
        # Letters apply left to right, capitals being inverses.
        want = list(range(len(rows)))
        for letter in word:
            step = {"a": a, "b": b}[letter.lower()]
            want = [step[v] if letter.islower() else step.index(v) for v in want]
        assert perm == want
        assert sorted(perm[v] for v in c) == c
        graph._verify_automorphism(rows, perm)  # a product of verified maps
    assert oracles.orbit(maps, c[0]) == set(c)


def test_vertex_words_fix_0_with_four_orbits_on_its_neighbours(rows, automorphisms):
    maps = graph.stabilizer(automorphisms, graph.VERTEX_WORDS, 1)
    assert all(perm[0] == 0 for perm in maps)
    n0 = [v for v in range(len(rows)) if rows[0] >> v & 1]
    reps = [v for v in graph.orbit_representatives(len(rows), maps) if v in n0]
    assert reps == [16, 17, 28, 29]
    orbits = [oracles.orbit(maps, u) for u in reps]
    assert [len(o) for o in orbits] == [25] * 4
    assert set().union(*orbits) == set(n0)


def test_stabilizer_refuses_a_word_that_leaves_the_set(automorphisms, part):
    a = automorphisms[0]
    with pytest.raises(VerificationError, match="the word a sends vertex") as err:
        graph.stabilizer(automorphisms, ("abA", "a"), part.c)
    c = oracles.vertices(part.c)
    assert err.value.witness == min(v for v in c if not part.c >> a[v] & 1)


def test_stabilizer_refuses_a_second_orbit(automorphisms, part):
    # One of the two words alone fixes C but leaves many orbits on it.
    maps = graph.stabilizer(automorphisms, graph.STABILIZER_WORDS, part.c)
    with pytest.raises(VerificationError, match="orbits on the set, not 1") as err:
        graph.stabilizer(automorphisms, graph.STABILIZER_WORDS[:1], part.c)
    c = oracles.vertices(part.c)
    assert err.value.witness == min(set(c) - oracles.orbit(maps[:1], c[0]))


def test_srg_identity_holds(rows, srg_params):
    # Oracle for what verify_srg certifies: A^2 by integer matrix product.
    n = len(rows)
    a = np.array([[rows[i] >> j & 1 for j in range(n)] for i in range(n)])
    eye, ones = np.eye(n, dtype=a.dtype), np.ones_like(a)
    _, k, lam, mu = srg_params
    assert (a @ a == k * eye + lam * a + mu * (ones - eye - a)).all()


def test_flipped_edge_breaks_verification(rows, automorphisms):
    h = list(rows)
    graph.flip_edge(h, 0, 1)
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(h, automorphisms)
    assert err.value.witness is not None
    assert "degree" in str(err.value)  # caught before any pair is scanned


def test_one_direction_flip_fails_symmetry_with_a_witness(rows, automorphisms):
    # Flip A[i][j] but not A[j][i]; a second bit t > j in row i keeps its
    # degree at k, so the degree check passes and the transpose must catch
    # it, on a pair through 0 and on one away from it.  The witness is the
    # first (row, column) where A and its transpose differ: (j, i).
    for i, j in ((1, 0), (300, 17)):
        t = next(
            t for t in range(j + 1, len(rows))
            if t != i and rows[i] >> t & 1 != rows[i] >> j & 1
        )
        h = list(rows)
        h[i] ^= 1 << j | 1 << t
        with pytest.raises(VerificationError, match="asymmetric") as err:
            graph.verify_srg(h, automorphisms)
        assert err.value.witness == (j, i)
    # The lone flipped bit changes a degree and fails with that vertex.
    h = list(rows)
    h[1] ^= 1 << 0
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(h, automorphisms)
    assert err.value.witness[0] == 1


@pytest.mark.parametrize(
    "perm",
    [[0, 1, 2], [1, 2, 0], [1, 0, 2], [0, 0, 0]],
    ids=["identity", "rotation", "transposition", "no-bijection"],
)
def test_directed_3_cycle_fails_symmetry_before_any_map(perm):
    # 0 -> 1 -> 2 -> 0 has no loops and constant degree 1, so the symmetry
    # step is the first to refuse it, and it does so before any map is read:
    # the rotation is an automorphism of the directed cycle, the
    # transposition is none, and the last map is no bijection, yet all three
    # give the same refusal.  A map is checked only on a symmetric A.
    h = [0b010, 0b100, 0b001]
    with pytest.raises(VerificationError, match=r"asymmetric pair \(0,1\)") as err:
        graph.verify_srg(h, [perm])
    assert err.value.witness == (0, 1)

def test_petersen_graph_parameters_via_scan():
    p = petersen()
    params = graph.verify_srg(p, petersen_generators())
    assert params == (10, 3, 0, 1)
    assert oracles.verify_srg_all_pairs(p) == params
    # A 2-switch (edges ab, cd become ac, bd) keeps every degree at 3; this
    # one moves vertex 0's edges, so a pair through 0 catches it.
    a, b, c, d = next(
        t
        for t in permutations(range(10), 4)
        if p[t[0]] >> t[1] & 1 and p[t[2]] >> t[3] & 1
        and not p[t[0]] >> t[2] & 1 and not p[t[1]] >> t[3] & 1
    )
    switched = list(p)
    for i, j in ((a, b), (c, d), (a, c), (b, d)):
        graph.flip_edge(switched, i, j)
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(switched, petersen_generators())
    assert "common neighbours" in str(err.value)
    assert err.value.witness is not None
    with pytest.raises(VerificationError):
        oracles.verify_srg_all_pairs(switched)


def test_partition_blocks_are_disjoint_and_labelled(part):
    blocks = [set(oracles.vertices(m)) for m in part]
    union = set()
    for b in blocks:
        assert not union & b
        union |= b
    assert union == set(range(416))
    # Components labelled by smallest contained vertex.
    assert min(blocks[0]) < min(blocks[1]) < min(blocks[2])


def test_partition_membership_is_anchor_predicate(part, isosets):
    b_all = set(oracles.vertices(part.b1 | part.b2 | part.b3))
    for i in range(416):
        has_anchor = bool(isosets[i] >> 1 & 1)
        assert (i in b_all) == has_anchor


def test_claim1_counts(rows, part):
    # The three cases, counted directly; verify_claim1 counts every vertex
    # (test_c06_partition_and_claim1).
    i = oracles.vertices(part.b2)[0]
    assert (rows[i] & part.b1).bit_count() == 0
    assert (rows[i] & part.b2).bit_count() == 20
    assert (rows[i] & part.b3).bit_count() == 0
    j = oracles.vertices(part.c)[0]
    assert (rows[j] & part.b1).bit_count() == 8
    assert (rows[j] & part.b2).bit_count() == 8
    assert (rows[j] & part.b3).bit_count() == 8


def test_claim1_refuses_a_b1_vertex_traded_with_a_c_vertex(rows, part):
    # B1 and C trade their first vertices; the sizes stay 32 and 320, so
    # only the block counts can see it.  A vertex of the new B1 adjacent to
    # exactly one of the two traded vertices sees 19 or 21 neighbours in B1,
    # and the traded C vertex sees 7 or 8; the first of them is named.
    x, y = oracles.vertices(part.b1)[0], oracles.vertices(part.c)[0]
    swap = 1 << x | 1 << y
    traded = graph.Partition(part.b1 ^ swap, part.b2, part.b3, part.c ^ swap)
    with pytest.raises(VerificationError, match="neighbours in B1") as err:
        graph.verify_claim1(rows, traded)
    b1 = oracles.vertices(traded.b1)
    wrong = [u for u in b1 if (rows[u] & traded.b1).bit_count() != 20]
    assert y in wrong
    assert err.value.witness == (wrong[0], 1)


def test_split_invariant_under_anchor_relabelling(rows, columns):
    # The blocks and their counts at every anchor are
    # test_c06_partition_and_claim1's; C is the rest of the vertices.
    for anchor in (7, 21, 58):
        alt = graph.split_B_C(rows, columns[anchor])
        assert alt.c == ((1 << 416) - 1) & ~columns[anchor]
    # No point 0: its column is empty, and an empty B has no components.
    with pytest.raises(VerificationError) as exc:
        graph.split_B_C(rows, columns[0])
    assert exc.value.witness == []


def _model_words() -> list[int]:
    """The word of each vertex of the oracle model: vertex 2t + a is copy a
    of the t-th even-weight word."""
    words = [w for w in range(32) if w.bit_count() % 2 == 0]
    return [w for w in words for _ in range(2)]


def test_components_isomorphic_to_coclique_extension(rows, part):
    model = oracles.coclique_extension(oracles.halved_5cube(), 2)
    words = _model_words()
    graph.check_component_structure(rows, part)  # or it raises
    for mask in (part.b1, part.b2, part.b3):
        block = oracles.vertices(mask)
        labels = graph._cube_words(rows, mask)
        # Model vertex 2t + a is the a-th vertex of the block, in order, that
        # carries word t; every word is carried exactly twice.
        holders = {w: [v for v, x in zip(block, labels) if x == w] for w in words}
        assert all(len(vs) == 2 for vs in holders.values())
        mapped = [holders[w][u % 2] for u, w in enumerate(words)]
        assert sorted(mapped) == sorted(block)
        for u in range(32):
            for w in range(32):
                assert model[u] >> w & 1 == rows[mapped[u]] >> mapped[w] & 1
        # The backtracking search agrees that an isomorphism exists.
        assert oracles.find_isomorphism(model, oracles.induced(rows, mask)) is not None


def _blocks_of_models() -> tuple[list[int], graph.Partition]:
    """Three disjoint copies of the oracle model on 96 vertices, and their
    partition."""
    model = oracles.coclique_extension(oracles.halved_5cube(), 2)
    rows = [model[v % 32] << (v // 32 * 32) for v in range(96)]
    masks = [(1 << 32) - 1 << 32 * t for t in range(3)]
    return rows, graph.Partition(*masks, 0)


def _witness_vertices(witness) -> set[int]:
    return set(witness) if isinstance(witness, tuple) else {witness}


def test_component_structure_labels_the_model_itself():
    # The smallest vertex of each copy gets 00000; every even word is used
    # twice.
    h, part = _blocks_of_models()
    graph.check_component_structure(h, part)  # or it raises
    for mask in (part.b1, part.b2, part.b3):
        labels = graph._cube_words(h, mask)
        assert labels[:2] == [0, 0]
        assert sorted(labels) == sorted(_model_words())


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("edges of 00000 and 00011 removed", "odd or taken twice"),
        ("edges of 00011 and 00101 removed", "disagree with its adjacency"),
        ("vertex 3 made a twin of vertex 0", "odd or taken twice"),
    ],
    ids=["class-pair-through-00000", "class-pair-of-weight-2", "third-twin"],
)
def test_component_structure_refuses_a_corrupted_model(corruption, message):
    # Model vertices 2t and 2t + 1 carry the t-th even word: 00000, 00011,
    # 00101, ...  The copy at 32..63 stands for B2.
    h, part = _blocks_of_models()
    base = 32
    if corruption.startswith("edges"):
        # The four edges between two adjacent twin classes.  Through the
        # class of 00000 the words read off are no bijection; between two
        # classes of weight-2 words they are, and a pair disagrees.
        s, t = (0, 1) if "00000" in corruption else (1, 2)
        for a in range(2):
            for b in range(2):
                graph.flip_edge(h, base + 2 * s + a, base + 2 * t + b)
        if s == 0:
            # 34 no longer meets 32, so it is the first of the five vertices
            # that the words are read against, in place of one of weight 4;
            # 36, the first vertex read against them, gets 01000.
            witness = base + 4
        else:
            # The first edge removed: every vertex before it keeps its row,
            # and its words are still at distance 2.
            witness = (base + 2 * s, base + 2 * t)
    else:
        # Three vertices share the word 00000 and only one has 00011, yet
        # every pair agrees with the words: only the count refuses it, at
        # the third of them.
        for u in range(32):
            if u != 3 and (h[base + 3] ^ h[base]) >> base + u & 1:
                graph.flip_edge(h, base + 3, base + u)
        witness = base + 3
    with pytest.raises(VerificationError, match=f"^B2: .*{message}") as err:
        graph.check_component_structure(h, part)
    assert err.value.witness == witness


def test_component_structure_refuses_a_block_not_isomorphic_to_the_model(rows, part):
    # 32 vertices of C in place of B2, with their own mask: B2 is named.
    fake_b2 = oracles.vertices(part.c)[:32]
    fake = graph.Partition(part.b1, sum(1 << v for v in fake_b2), part.b3, 0)
    with pytest.raises(VerificationError, match="^B2: ") as err:
        graph.check_component_structure(rows, fake)
    assert _witness_vertices(err.value.witness) <= set(fake_b2)


def test_halved_5cube_model():
    h = oracles.halved_5cube()
    params = graph.verify_srg(h, halved_5cube_generators())
    assert params == (16, 10, 6, 6)
    model = oracles.coclique_extension(h, 2)
    assert len(model) == 32
    assert {row.bit_count() for row in model} == {20}
    # Paired copies share neighbourhoods and are non-adjacent.
    for v in range(16):
        assert not model[2 * v] >> 2 * v + 1 & 1
        assert model[2 * v] == model[2 * v + 1]


def test_find_isomorphism_positive_and_negative():
    h = oracles.halved_5cube()
    mapping = oracles.find_isomorphism(h, h)
    assert mapping is not None
    p = petersen()
    assert oracles.find_isomorphism(h, oracles.coclique_extension(h, 2)) is None
    assert oracles.find_isomorphism(p, p) is not None


# Euclid: y = A + 4I lives only in the graph.  The vectors export writes
# its columns (`oracles.column_digits` spells them out), and the oracles
# take A's rows as y's column ints.  numpy, a test dependency only, gives
# the Gram-matrix oracle of the distance census and the cubic identity on C
# on every row.


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
        assert sum(oracles.column(rows, i)) == 104
        assert oracles.column(rows, i) == [oracles.entry(rows, t, i) for t in range(416)]
    for i, j in [(0, 1), (5, 100), (200, 300)]:
        want = 1 if rows[i] >> j & 1 else 0
        assert oracles.entry(rows, i, j) == want
        assert oracles.entry(rows, j, i) == want
    by_column = np.array([oracles.column(rows, i) for i in range(416)]).T
    assert (oracles.dense(rows) == by_column).all()


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


def gram_distances(columns) -> np.ndarray:
    """Oracle: every squared distance from an int16 Gram matrix of y.
    Entries in {0, 1, 4} bound each Gram entry by 416 * 16 and each
    distance by twice that, below 2**15."""
    e = oracles.dense(columns).astype(np.int16)
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
    assert dot(p, oracles.column(rows, b1)) == 0
    assert dot(p, oracles.column(rows, b2)) == 24
    assert dot(p, oracles.column(rows, b3)) == -24
    assert dot(p, oracles.column(rows, c)) == 0
    assert dot(q, oracles.column(rows, b1)) == 48
    assert dot(q, oracles.column(rows, b2)) == -24
    assert dot(q, oracles.column(rows, b3)) == -24
    assert dot(q, oracles.column(rows, c)) == 0


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
    assert oracles.column_digits(rows, c[0])[c[0]] == shift
    assert int(rank) == c_cert["linear_rank"] == len(c) - graph.C_SPECTRUM[-int(shift)]


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
    return oracles.dense(rows)[np.ix_(c, c)] - 4 * np.eye(len(c), dtype=np.int64)


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


# Cliques: the clique number, special cliques, exact covers, and the final
# bounds.


def complete_graph(n: int) -> list[int]:
    return [((1 << n) - 1) ^ (1 << i) for i in range(n)]


def cycle_graph(n: int) -> list[int]:
    rows = [0] * n
    for i in range(n):
        rows[i] |= 1 << ((i + 1) % n)
        rows[(i + 1) % n] |= 1 << i
    return rows


def test_max_clique_on_small_graphs():
    size, wit, _ = oracles.max_clique(complete_graph(6))
    assert size == 6 and sorted(wit) == list(range(6))
    size, wit, _ = oracles.max_clique(cycle_graph(5))
    assert size == 2
    size, _, _ = oracles.max_clique([0, 0, 0, 0])
    assert size == 1


def test_clique_number_is_5(rows):
    # The oracle's search in N(0) alone, with its witness and node count
    # pinned: the colouring is built class by class, and must give the
    # order of first-fit colouring.  The search from every edge takes more
    # than 5000 nodes (test_c09_clique_number).
    counter = [0]
    sub_size, sub_witness = oracles.max_clique_in(rows, rows[0], 0, counter)
    assert (1 + sub_size, sorted([0] + sub_witness)) == (5, [0, 403, 409, 411, 415])
    assert counter[0] == 1412


def test_clique_count_on_small_graphs():
    # K5 with no map: each of the 4 neighbours of 0 is its own orbit, with 3
    # common neighbours to check.  The rotation of 1..4 fixes 0 and leaves
    # one orbit on N(0), so 3 checks settle it.
    assert graph.verify_clique_number(complete_graph(5), []) == ([0, 1, 2, 3, 4], 12)
    turn = [0, 2, 3, 4, 1]
    assert graph.verify_clique_number(complete_graph(5), [turn]) == (
        [0, 1, 2, 3, 4],
        3,
    )


def test_a_6_clique_is_refused_with_its_vertices(rows, vertex_maps):
    # K6: the triangle {3, 4, 5} in N(0) & N(1) & N(2).
    with pytest.raises(VerificationError, match="6-clique") as exc:
        graph.verify_clique_number(complete_graph(6), [])
    assert exc.value.witness == [0, 1, 2, 3, 4, 5]
    # The real graph with 29, a common neighbour of 0 and 16, joined to the
    # rest of the 5-clique witness: the count names that 6-clique.
    planted = list(rows)
    for v in (28, 40, 384):
        planted[v] |= 1 << 29
        planted[29] |= 1 << v
    with pytest.raises(VerificationError, match="6-clique through vertex 0 and 16") as exc:
        graph.verify_clique_number(planted, vertex_maps)
    assert exc.value.witness == [0, 16, 28, 29, 40, 384]


def test_a_graph_of_clique_number_4_is_refused():
    # The cocktail party graph K(2,2,2,2): vertex v misses only v ^ 1.
    rows = [0xFF ^ (1 << v | 1 << (v ^ 1)) for v in range(8)]
    assert oracles.max_clique(rows)[0] == 4
    with pytest.raises(VerificationError, match="no 5-clique through vertex 0") as exc:
        graph.verify_clique_number(rows, [])
    assert exc.value.witness == 0


def test_single_vertex_orbit(rows, automorphisms):
    assert graph.orbit_representatives(len(rows), automorphisms) == [0]
    assert graph.orbit_representatives(4, [[1, 0, 2, 3]]) == [0, 2, 3]
    # Two maps, orbits {0, 3, 5}, {1, 6}, {2} and {4}: each walked from its
    # smallest vertex, whatever map first reaches it.
    maps = [[3, 6, 2, 5, 4, 0, 1], [5, 1, 2, 0, 4, 3, 6]]
    assert graph.orbit_representatives(7, maps) == [0, 1, 2, 4]


def test_non_automorphism_is_refused_with_an_edge_witness(rows, automorphisms):
    swap = list(range(len(rows)))
    swap[0], swap[1] = 1, 0
    with pytest.raises(VerificationError) as exc:
        graph.verify_srg(rows, automorphisms + [swap])
    i, j = exc.value.witness
    assert rows[i] >> j & 1
    assert not rows[swap[i]] >> swap[j] & 1


def test_two_vertex_swap_is_refused_with_an_edge_witness():
    # The matching 0-2, 1-3 and an isolated vertex 4: n = 5 packs at width
    # 8, so the transpose runs over padding.  Swapping 0 and 1 sends the
    # edge (0,2) to the non-edge (1,2) but keeps the set of columns, so the
    # check must compare each column with the one in its place.
    rows = [0b00100, 0b01000, 0b00001, 0b00010, 0]
    with pytest.raises(VerificationError, match="non-edge") as err:
        graph._verify_automorphism(rows, [1, 0, 2, 3, 4])
    assert err.value.witness == (0, 2)
    graph._verify_automorphism(rows, [1, 0, 3, 2, 4])  # both edges swapped
    graph._verify_automorphism(cycle_graph(7), [-v % 7 for v in range(7)])


def test_a_map_that_loses_an_edge_only_in_a_column_is_refused_with_a_witness():
    # The directed 3-cycle 0->1->2->0 (an asymmetric A, outside the
    # precondition) under the identity: the moved columns are the rows
    # transposed, so they differ, yet no edge (i,j) has A[perm[i],perm[j]] = 0.
    with pytest.raises(VerificationError, match="non-edge") as err:
        graph._verify_automorphism([2, 4, 1], [0, 1, 2])
    assert err.value.witness == (0, 1)


def test_non_bijection_is_refused(rows):
    # The witness is the first vertex hit twice or missed.
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph._verify_automorphism(rows, [0] * len(rows))
    assert err.value.witness == 0
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph._verify_automorphism(rows, list(range(len(rows) - 1)))
    assert err.value.witness == len(rows) - 1


def test_pair_recheck_refuses_a_non_clique(rows):
    non_neighbour = next(t for t in range(len(rows)) if t != 0 and not rows[0] >> t & 1)
    with pytest.raises(VerificationError):
        oracles.verify_clique(rows, [0, non_neighbour])


def test_special_clique_enumeration(rows, isosets, special_cliques):
    for vertices, core in special_cliques:
        assert len(core) == 3
        for a in range(5):
            for b in range(a + 1, 5):
                assert rows[vertices[a]] >> vertices[b] & 1
        core_mask = 0
        for idx in core:
            core_mask |= 1 << idx
        inter = isosets[vertices[0]]
        for v in vertices[1:]:
            inter &= isosets[v]
        assert inter == core_mask


def test_special_cliques_sorted_canonically(special_cliques):
    keys = [(core, vertices) for vertices, core in special_cliques]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_cover_cores_distinct(special_cliques):
    cores = {core for _, core in special_cliques}
    assert len(cores) == 64


def test_core_groups_are_4_cliques_or_special_cliques(rows, part, isosets):
    # The groups of 4 members are 4-cliques that extend to no special
    # clique; counting must pass them over.
    members: dict[int, set[int]] = {}
    edges: Counter = Counter()
    for i, j in graph.edges(rows):
        if part.c >> i & 1 and part.c >> j & 1:
            core = isosets[i] & isosets[j]
            members.setdefault(core, set()).update((i, j))
            edges[core] += 1
    shapes = Counter((len(m), edges[core]) for core, m in members.items())
    assert shapes == {(4, 6): 1920, (5, 10): 64}


def test_a_core_shared_by_six_vertices_is_refused():
    # Six pairwise adjacent vertices of C whose iso-sets share the core
    # {2, 3, 4}: c0 = 0 has one group of 5 neighbours, more than a special
    # clique holds.
    core = 0b11100
    isosets = [core | 1 << (5 + v) for v in range(6)]
    part = graph.Partition(0, 0, 0, 0b111111)
    message = r"vertex 0 has groups of \[5\] neighbours in C on one core"
    with pytest.raises(VerificationError, match=message) as exc:
        graph.special_cliques(complete_graph(6), part, isosets, [])
    assert exc.value.witness == 0


def _core_groups(rows, part, isosets):
    """The neighbours of c0 = min C in C, as a mask per core they share
    with c0."""
    c0, *rest = oracles.vertices(part.c)
    groups: dict[int, int] = {}
    for j in rest:
        if rows[c0] >> j & 1:
            core = isosets[c0] & isosets[j]
            groups[core] = groups.get(core, 0) | 1 << j
    return groups


def test_c0_in_two_core_groups_of_4_is_refused(rows, part, isosets, c_maps):
    # One neighbour of c0 = 96 moved from its group of 3 onto the core of
    # another group of 3: its iso-set keeps the points off the old core,
    # which miss the iso-set of c0.
    groups = _core_groups(rows, part, isosets)
    assert sorted(m.bit_count() for m in groups.values()) == [3] * 24 + [4]
    (old, members), (new, _) = [
        (core, m) for core, m in groups.items() if m.bit_count() == 3
    ][:2]
    j = (members & -members).bit_length() - 1
    moved = list(isosets)
    moved[j] = isosets[j] & ~old | new
    with pytest.raises(VerificationError, match=r"groups of \[4, 4\]") as exc:
        graph.special_cliques(rows, part, moved, c_maps)
    assert exc.value.witness == oracles.vertices(part.c)[0] == 96


def test_a_core_group_of_4_that_is_no_clique_is_refused(rows, part, isosets, c_maps):
    # The edge between the second and fourth member of c0's group of 4
    # removed: the second is the first member that misses another.
    members = next(
        m for m in _core_groups(rows, part, isosets).values() if m.bit_count() == 4
    )
    _, a, _, b = oracles.vertices(members)
    cut = list(rows)
    graph.flip_edge(cut, a, b)
    with pytest.raises(VerificationError, match="misses another") as exc:
        graph.special_cliques(cut, part, isosets, c_maps)
    assert exc.value.witness == a


def test_diameter_smaller_iff_clique(rows):
    # Sampled equivalence: a subset has squared diameter below 192 exactly
    # when it is a clique.
    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(2, 5)
        sub = rng.sample(range(len(rows)), size)
        diam = max(
            oracles.pair_distance_sq(rows, a, b)
            for t, a in enumerate(sub)
            for b in sub[t + 1 :]
        )
        is_clique = all(
            rows[a] >> b & 1 for t, a in enumerate(sub) for b in sub[t + 1 :]
        )
        assert (diam < 192) == is_clique
