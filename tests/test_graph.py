"""Graph construction, strong regularity, spectrum, and the B/C split."""

from itertools import combinations, permutations

import numpy as np
import pytest

from g24verify import graph, hermitian
from g24verify.errors import ConstructionError, VerificationError

import oracles

PETERSEN_VERTICES = list(combinations(range(5), 2))


def petersen() -> graph.Graph:
    """Kneser graph on 2-subsets of a 5-set, disjointness adjacency."""
    verts = PETERSEN_VERTICES
    rows = [0] * 10
    for i in range(10):
        for j in range(i + 1, 10):
            if not set(verts[i]) & set(verts[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return graph.Graph(10, rows)


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


def test_graph_shape(g):
    assert g.n == 416
    assert g.edge_count() == 20800
    degrees = {g.degree(i) for i in range(g.n)}
    assert degrees == {100}


def test_no_loops_and_symmetric(g):
    for i in range(g.n):
        assert not g.adjacent(i, i)
    for i in range(0, g.n, 13):
        for j in range(g.n):
            assert g.adjacent(i, j) == g.adjacent(j, i)


def test_adjacency_is_intersection_3(g, isosets):
    for i in range(0, g.n, 29):
        for j in range(i + 1, g.n):
            size = (isosets[i] & isosets[j]).bit_count()
            assert g.adjacent(i, j) == (size == 3)


def test_intersection_distribution(isosets):
    _, dist, _ = graph.build_graph(isosets)
    assert 3 in dist
    assert dist[3] == 20800
    assert sum(dist.values()) == 416 * 415 // 2
    assert set(dist) == {2, 3, 5}


def test_build_graph_matches_the_pairwise_oracle(g, isosets):
    h, dist = oracles.build_graph(isosets)
    assert h.rows == g.rows
    assert dist == graph.build_graph(isosets)[1] == {2: 31200, 3: 20800, 5: 34320}


def test_build_graph_validates_input(isosets):
    with pytest.raises(ConstructionError):
        graph.build_graph(isosets[:-1])
    broken = list(isosets)
    broken[0] = 0b111
    with pytest.raises(ConstructionError):
        graph.build_graph(broken)
    # Fifteen members, but one of them is not an isotropic point.
    for outside in (0, 66):
        broken[0] = isosets[0] ^ (isosets[0] & -isosets[0]) | 1 << outside
        with pytest.raises(ConstructionError, match="outside 1..65"):
            graph.build_graph(broken)
    # Sixteen isotropic points: only the member count refuses it, which is
    # what keeps the bit-sliced counter's four planes from overflowing.
    extra = next(a for a in range(1, 66) if not isosets[0] >> a & 1)
    broken[0] = isosets[0] | 1 << extra
    with pytest.raises(ConstructionError, match="iso-set 0 has 16 members") as err:
        graph.build_graph(broken)
    assert err.value.witness == 0


def test_point_columns_transpose_the_isosets(isosets):
    columns = graph.point_columns(isosets)
    assert graph.build_graph(isosets)[2] == columns  # the columns it built from
    assert len(columns) == 66 and columns[0] == 0
    for a in range(1, 66):
        assert columns[a] == sum(1 << i for i, s in enumerate(isosets) if s >> a & 1)
        assert columns[a].bit_count() == 96  # 416 * 15 / 65


def test_point_maps_are_the_isometries_on_the_isotropic_points(
    plane, g, isosets, automorphisms
):
    maps = graph.verify_point_action(g, graph.point_columns(isosets), automorphisms)
    assert len(maps) == len(hermitian.ISOMETRIES)
    number = oracles.iso_number(plane)
    for sigma, m in zip(maps, hermitian.ISOMETRIES):
        image = [hermitian.normalize(hermitian._apply(m, p)) for p in plane.isotropic]
        assert sigma == [number[q] - 1 for q in image]


def test_point_action_refuses_a_second_orbit_and_a_lost_column(
    g, isosets, automorphisms
):
    columns = graph.point_columns(isosets)
    with pytest.raises(VerificationError, match="orbits on the points") as err:
        graph.verify_point_action(g, columns, automorphisms[:1])  # the swap alone
    assert 1 < err.value.witness <= 65
    # Moving vertex 7 from the column of its first member to a non-member's
    # leaves columns of 95 and 97 vertices; a map that moves either sends it
    # to no column, and here the first map already does.
    a = (isosets[7] & -isosets[7]).bit_length() - 1
    b = next(b for b in range(2, 66) if not isosets[7] >> b & 1)
    broken = list(columns)
    broken[a] ^= 1 << 7
    broken[b] ^= 1 << 7
    with pytest.raises(VerificationError, match="to no column") as err:
        graph.verify_point_action(g, broken, automorphisms)
    m, point = err.value.witness
    assert 0 <= m < 3 and point in (a, b)


def test_srg_parameters(srg_params):
    assert srg_params == graph.SRG == (416, 100, 36, 20)
    # k(k - lambda - 1) = (v - k - 1) mu, counting paths 0 - u - w.
    assert 100 * 63 == 315 * 20 == 6300


def test_srg_identity_holds(g, srg_params):
    # Oracle for what verify_srg certifies: A^2 by integer matrix product.
    a = np.array([[g.rows[i] >> j & 1 for j in range(g.n)] for i in range(g.n)])
    eye, ones = np.eye(g.n, dtype=a.dtype), np.ones_like(a)
    k, lam, mu = srg_params.k, srg_params.lam, srg_params.mu
    assert (a @ a == k * eye + lam * a + mu * (ones - eye - a)).all()


def test_pair_scan_oracle_agrees_with_verify_srg(g, srg_params):
    assert oracles.verify_srg_all_pairs(g) == srg_params


def test_flipped_edge_breaks_verification(isosets, automorphisms):
    h = graph.build_graph(isosets)[0]
    h.flip_edge(0, 1)
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(h, automorphisms)
    assert err.value.witness is not None
    assert "degree" in str(err.value)  # caught before any pair is scanned


def test_one_direction_flip_fails_symmetry_with_a_witness(g, automorphisms):
    # Flip A[1][0] but not A[0][1]; a second bit in row 1 keeps its degree at
    # k, so the degree check passes and the pairs through 0 must catch it.
    j = next(j for j in range(2, g.n) if g.adjacent(1, j) != g.adjacent(1, 0))
    h = graph.Graph(g.n, list(g.rows))
    h.rows[1] ^= 1 << 0 | 1 << j
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(h, automorphisms)
    assert err.value.witness == (0, 1)
    assert "asymmetric" in str(err.value)
    # The lone flipped bit changes a degree and fails with that vertex.
    h = graph.Graph(g.n, list(g.rows))
    h.rows[1] ^= 1 << 0
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(h, automorphisms)
    assert err.value.witness[0] == 1


def test_spectrum_of_main_graph(spectrum):
    assert spectrum.s == -4
    assert spectrum.f == 65
    assert spectrum.r == 20
    assert spectrum.g_mult == 350
    assert 1 + spectrum.f + spectrum.g_mult == 416


def test_spectrum_cross_instance_petersen():
    cross = graph.srg_spectrum(graph.SrgParams(10, 3, 0, 1))
    assert cross.s == -2
    assert cross.f == 5
    assert cross.r == 1
    assert cross.g_mult == 4


def test_petersen_graph_parameters_via_scan():
    p = petersen()
    params = graph.verify_srg(p, petersen_generators())
    assert (params.v, params.k, params.lam, params.mu) == (10, 3, 0, 1)
    assert oracles.verify_srg_all_pairs(p) == params
    # A 2-switch (edges ab, cd become ac, bd) keeps every degree at 3; this
    # one moves vertex 0's edges, so a pair through 0 catches it.
    a, b, c, d = next(
        t
        for t in permutations(range(10), 4)
        if p.adjacent(t[0], t[1]) and p.adjacent(t[2], t[3])
        and not p.adjacent(t[0], t[2]) and not p.adjacent(t[1], t[3])
    )
    switched = graph.Graph(10, list(p.rows))
    for i, j in ((a, b), (c, d), (a, c), (b, d)):
        switched.flip_edge(i, j)
    with pytest.raises(VerificationError) as err:
        graph.verify_srg(switched, petersen_generators())
    assert "common neighbours" in str(err.value)
    assert err.value.witness is not None
    with pytest.raises(VerificationError):
        oracles.verify_srg_all_pairs(switched)


def test_spectrum_is_exact():
    got = graph.srg_spectrum(graph.SrgParams(416, 100, 36, 20))
    assert type(got.r) is int and type(got.s) is int
    assert (got.r, got.s) == (20, -4)


def test_partition_sizes(part):
    assert len(part.b1) == len(part.b2) == len(part.b3) == 32
    assert len(part.c) == 320
    assert 96 + 320 == 416


def test_partition_blocks_are_disjoint_and_labelled(part):
    blocks = [set(part.b1), set(part.b2), set(part.b3), set(part.c)]
    union = set()
    for b in blocks:
        assert not union & b
        union |= b
    assert union == set(range(416))
    # Components labelled by smallest contained vertex.
    assert part.b1[0] < part.b2[0] < part.b3[0]


def test_partition_membership_is_anchor_predicate(part, isosets):
    b_all = set(part.b1) | set(part.b2) | set(part.b3)
    for i in range(416):
        has_anchor = bool(isosets[i] >> 1 & 1)
        assert (i in b_all) == has_anchor


def test_claim1_counts(g, part):
    graph.verify_claim1(g, part)
    # Spot the three cases explicitly.
    i = part.b2[0]
    assert (g.rows[i] & part.b1_mask).bit_count() == 0
    assert (g.rows[i] & part.b2_mask).bit_count() == 20
    assert (g.rows[i] & part.b3_mask).bit_count() == 0
    j = part.c[0]
    assert (g.rows[j] & part.b1_mask).bit_count() == 8
    assert (g.rows[j] & part.b2_mask).bit_count() == 8
    assert (g.rows[j] & part.b3_mask).bit_count() == 8


def test_claim1_refuses_a_b1_vertex_traded_with_a_c_vertex(g, part):
    # B1 and C trade their first vertices; the sizes stay 32 and 320, so
    # only the block counts can see it.  A vertex of the new B1 adjacent to
    # exactly one of the two traded vertices sees 19 or 21 neighbours in B1,
    # and the traded C vertex sees 7 or 8; the first of them is named.
    x, y = part.b1[0], part.c[0]
    b1 = tuple(sorted(part.b1[1:] + (y,)))
    c = tuple(sorted(part.c[1:] + (x,)))
    swap = 1 << x | 1 << y
    traded = part._replace(
        b1=b1, c=c, b1_mask=part.b1_mask ^ swap, c_mask=part.c_mask ^ swap
    )
    with pytest.raises(VerificationError, match="neighbours in B1") as err:
        graph.verify_claim1(g, traded)
    wrong = [u for u in b1 if (g.rows[u] & traded.b1_mask).bit_count() != 20]
    assert y in wrong
    assert err.value.witness == (wrong[0], 1)


def test_split_invariant_under_anchor_relabelling(g, isosets):
    columns = graph.point_columns(isosets)
    for anchor in (7, 21, 58):
        alt = graph.split_B_C(g, columns[anchor])
        assert [len(alt.b1), len(alt.b2), len(alt.b3)] == [32, 32, 32]
        assert len(alt.c) == 320 and alt.c_mask == ((1 << 416) - 1) & ~columns[anchor]
        graph.verify_claim1(g, alt)
    # No point 0: its column is empty, and an empty B has no components.
    with pytest.raises(VerificationError) as exc:
        graph.split_B_C(g, columns[0])
    assert exc.value.witness == []


def _model_words() -> list[int]:
    """The word of each vertex of the oracle model: vertex 2t + a is copy a
    of the t-th even-weight word."""
    words = [w for w in range(32) if w.bit_count() % 2 == 0]
    return [w for w in words for _ in range(2)]


def test_components_isomorphic_to_coclique_extension(g, part):
    model = oracles.coclique_extension(oracles.halved_5cube(), 2)
    words = _model_words()
    labellings = graph.check_component_structure(g, part)
    assert len(labellings) == 3
    for block, labels in zip((part.b1, part.b2, part.b3), labellings):
        # Model vertex 2t + a is the a-th vertex of the block, in order, that
        # carries word t; every word is carried exactly twice.
        holders = {w: [v for v, x in zip(block, labels) if x == w] for w in words}
        assert all(len(vs) == 2 for vs in holders.values())
        mapped = [holders[w][u % 2] for u, w in enumerate(words)]
        assert sorted(mapped) == sorted(block)
        for u in range(32):
            for w in range(32):
                assert model.adjacent(u, w) == g.adjacent(mapped[u], mapped[w])
        # The backtracking search agrees that an isomorphism exists.
        assert oracles.find_isomorphism(model, oracles.induced(g, block)) is not None


def _blocks_of_models() -> tuple[graph.Graph, graph.Partition]:
    """Three disjoint copies of the oracle model on 96 vertices, and their
    partition."""
    model = oracles.coclique_extension(oracles.halved_5cube(), 2)
    rows = [model.rows[v % 32] << (v // 32 * 32) for v in range(96)]
    blocks = [tuple(range(32 * t, 32 * t + 32)) for t in range(3)]
    masks = [(1 << 32) - 1 << 32 * t for t in range(3)]
    return graph.Graph(96, rows), graph.Partition(*blocks, (), *masks, 0)


def _witness_vertices(witness) -> set[int]:
    return set(witness) if isinstance(witness, tuple) else {witness}


def test_component_structure_labels_the_model_itself():
    # The smallest vertex of each copy gets 00000; every even word is used
    # twice.
    h, part = _blocks_of_models()
    for labels in graph.check_component_structure(h, part):
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
                h.flip_edge(base + 2 * s + a, base + 2 * t + b)
    else:
        # Three vertices share the word 00000 and only one has 00011, yet
        # every pair agrees with the words: only the count refuses it.
        for u in range(32):
            if u != 3 and h.adjacent(base + 3, base + u) != h.adjacent(base, base + u):
                h.flip_edge(base + 3, base + u)
    with pytest.raises(VerificationError, match=f"^B2: .*{message}") as err:
        graph.check_component_structure(h, part)
    assert _witness_vertices(err.value.witness) <= set(part.b2)


def test_component_structure_refuses_a_block_not_isomorphic_to_the_model(g, part):
    # 32 vertices of C in place of B2, with their own mask: B2 is named.
    fake_b2 = part.c[:32]
    fake = graph.Partition(
        part.b1, fake_b2, part.b3, part.c[32:],
        part.b1_mask, sum(1 << v for v in fake_b2), part.b3_mask, 0,
    )
    with pytest.raises(VerificationError, match="^B2: ") as err:
        graph.check_component_structure(g, fake)
    assert _witness_vertices(err.value.witness) <= set(fake_b2)
    # A block of the wrong size is refused before any word is read.
    short = graph.Partition(
        part.b1[:31], part.b2, part.b3, part.c,
        part.b1_mask & ~(1 << part.b1[31]), part.b2_mask, part.b3_mask, 0,
    )
    with pytest.raises(VerificationError, match="B1 has 31 vertices") as err:
        graph.check_component_structure(g, short)
    assert err.value.witness == 31


def test_halved_5cube_model():
    h = oracles.halved_5cube()
    params = graph.verify_srg(h, halved_5cube_generators())
    assert (params.v, params.k, params.lam, params.mu) == (16, 10, 6, 6)
    model = oracles.coclique_extension(h, 2)
    assert model.n == 32
    assert {model.degree(i) for i in range(32)} == {20}
    # Paired copies share neighbourhoods and are non-adjacent.
    for v in range(16):
        assert not model.adjacent(2 * v, 2 * v + 1)
        assert model.rows[2 * v] == model.rows[2 * v + 1]


def test_find_isomorphism_positive_and_negative():
    h = oracles.halved_5cube()
    mapping = oracles.find_isomorphism(h, h)
    assert mapping is not None
    p = petersen()
    assert oracles.find_isomorphism(h, oracles.coclique_extension(h, 2)) is None
    assert oracles.find_isomorphism(p, p) is not None
