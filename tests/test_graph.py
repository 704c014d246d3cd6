"""Graph construction, strong regularity, spectrum, and the B/C split."""

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


def test_graph_shape(rows):
    assert len(rows) == 416
    assert graph.edge_count(rows) == 20800
    assert {row.bit_count() for row in rows} == {100}


def test_no_loops_and_symmetric(rows):
    for i in range(len(rows)):
        assert not rows[i] >> i & 1
    for i in range(0, len(rows), 13):
        for j in range(len(rows)):
            assert rows[i] >> j & 1 == rows[j] >> i & 1


def test_build_graph_matches_the_pairwise_oracle(rows, isosets):
    h, dist = oracles.build_graph(isosets)
    assert h == rows
    assert dist == oracles.INTERSECTION_SIZES


def test_build_graph_validates_input(isosets):
    with pytest.raises(VerificationError, match="expected 416 iso-sets") as err:
        graph.build_graph(isosets[:-1])
    assert err.value.witness == 415
    broken = list(isosets)
    broken[0] = 0b111
    with pytest.raises(VerificationError):
        graph.build_graph(broken)
    # Fifteen members, but one of them is not an isotropic point.
    for outside in (0, 66):
        broken[0] = isosets[0] ^ (isosets[0] & -isosets[0]) | 1 << outside
        with pytest.raises(VerificationError, match="outside 1..65") as err:
            graph.build_graph(broken)
        assert err.value.witness == 0
    # Sixteen isotropic points: only the member count refuses it, which is
    # what keeps the bit-sliced counter's four planes from overflowing.
    extra = next(a for a in range(1, 66) if not isosets[0] >> a & 1)
    broken[0] = isosets[0] | 1 << extra
    with pytest.raises(VerificationError, match="iso-set 0 has 16 members") as err:
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
