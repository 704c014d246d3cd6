"""Clique number, special cliques, exact covers, and the final bounds."""

import random
from collections import Counter

import pytest

from g24verify import VerificationError, graph

import oracles


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


def test_clique_number_is_5(rows, srg_params, vertex_maps):
    size, witness, stats = oracles.max_clique(rows)
    assert size == 5
    assert len(witness) == 5
    assert stats.edges_scanned == 20800
    oracles.verify_clique(rows, witness)
    # The count at vertex 0 agrees with the all-edges oracle: one check per
    # representative u in N(0) (four) and vertex of N(0) & N(u) (36 each).
    # Its witness is the first 5-clique it meets, in ascending order.
    assert graph.verify_clique_number(rows, vertex_maps) == ([0, 16, 28, 40, 384], 144)
    # The oracle's search in N(0) alone, with its witness and node count
    # pinned: the colouring is built class by class, and must give the
    # order of first-fit colouring.
    counter = [0]
    sub_size, sub_witness = oracles.max_clique_in(rows, rows[0], 0, counter)
    assert (1 + sub_size, sorted([0] + sub_witness)) == (5, [0, 403, 409, 411, 415])
    assert counter[0] == 1412 < 5000 < stats.nodes


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


def test_every_failing_bijection_names_an_edge_it_loses():
    # A[j, i] = 1 and A[perm[i], perm[j]] = 0, on random graphs of either
    # symmetry.  A map passes iff A[perm[i], perm[j]] = A[j, i] throughout,
    # which on a symmetric A says that it is an automorphism.
    rng = random.Random(5)
    for trial in range(300):
        n = rng.randrange(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        arcs = {a for a in pairs if rng.random() < 0.4}
        if trial % 2:
            arcs |= {(j, i) for i, j in arcs}
        rows = [sum(1 << j for j in range(n) if (i, j) in arcs) for i in range(n)]
        perm = rng.sample(range(n), n)
        try:
            graph._verify_automorphism(rows, perm)
        except VerificationError as exc:
            j, i = exc.witness
            assert (j, i) in arcs and (perm[i], perm[j]) not in arcs
        else:
            assert {(perm[i], perm[j]) for j, i in arcs} == arcs


def test_non_bijection_is_refused(rows):
    # The witness is the first vertex hit twice or missed.
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph._verify_automorphism(rows, [0] * len(rows))
    assert err.value.witness == 0
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph._verify_automorphism(rows, list(range(len(rows) - 1)))
    assert err.value.witness == len(rows) - 1


def test_witness_survives_pair_recheck(rows, vertex_maps):
    witness, _ = graph.verify_clique_number(rows, vertex_maps)
    for a in range(5):
        for b in range(a + 1, 5):
            assert rows[witness[a]] >> witness[b] & 1
    non_neighbour = next(t for t in range(len(rows)) if t != 0 and not rows[0] >> t & 1)
    with pytest.raises(VerificationError):
        oracles.verify_clique(rows, [0, non_neighbour])


def test_branch_and_bound_matches_brute_force_on_sample_edges(rows):
    rng = random.Random(404)
    edges = list(graph.edges(rows))
    sample = rng.sample(edges, 20)
    for i, j in sample:
        common = [t for t in range(len(rows)) if rows[i] >> t & 1 and rows[j] >> t & 1]
        assert len(common) == 36
        fast = oracles.max_clique_through_edge(rows, i, j)
        slow = oracles.brute_force_omega_through_edge(rows, i, j)
        assert fast == slow
        assert 2 <= fast <= 5


def test_special_clique_enumeration(rows, part, isosets, special_cliques):
    assert len(special_cliques) >= 64
    in_c = set(oracles.vertices(part.c))
    for vertices, core in special_cliques:
        assert set(vertices) <= in_c
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


def test_exact_cover_is_a_partition(part, special_cliques):
    assert len(special_cliques) == 64
    assert 64 * 5 == 320 == part.c.bit_count()
    seen: set[int] = set()
    for vertices, _ in special_cliques:
        assert not seen & set(vertices)
        seen.update(vertices)
    assert seen == set(oracles.vertices(part.c))


def test_cover_cores_distinct(special_cliques):
    cores = {core for _, core in special_cliques}
    assert len(cores) == 64


def test_exact_cover_deterministic(rows, part, isosets, c_maps, special_cliques):
    again = graph.special_cliques(rows, part, isosets, c_maps)
    assert again == special_cliques


def test_special_cliques_by_counting_match_the_search_oracle(
    rows, part, isosets, special_cliques
):
    # The orbit of the one special clique through c0 = 96 is every special
    # clique that the per-edge grouping and search over C finds.
    assert len(special_cliques) == 64
    assert oracles.enumerate_special_cliques(rows, part, isosets) == special_cliques


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


def test_cover_count_is_one(special_cliques, part):
    # Each vertex of C lies in exactly one special clique, so every exact
    # cover must take that clique for it: the cover is forced.
    multiplicity = Counter(v for vertices, _ in special_cliques for v in vertices)
    assert set(multiplicity) == set(oracles.vertices(part.c))
    assert set(multiplicity.values()) == {1}


def test_borsuk_lower_bound(rows, part, full_report):
    # A part of smaller diameter is a clique, so n points need the least m
    # with m * omega >= n; the point counts are those of the built sets.
    verdict = full_report.to_dict()["verdict"]
    omega = verdict["max_clique"]
    counts = [
        (verdict, (part.c | part.b1).bit_count(), 71),
        (verdict["full_set"], len(rows), 84),
        (verdict["near_miss"], part.c.bit_count(), 64),
    ]
    for entry, n, m in counts:
        assert (entry["point_count"], entry["min_parts"]) == (n, m)
        assert (m - 1) * omega < n <= m * omega
    assert omega == 5 and -(-321 // omega) == 65


def test_final_verdict(certificates, part, full_report):
    verdict = full_report.to_dict()["verdict"]
    dims = {c["set"]: c["affine_dim"] for c in certificates}
    assert verdict["counterexample_dimension"] == dims["C+B1"] == 64
    assert verdict["full_set"]["dimension"] == dims["V"]
    assert verdict["near_miss"]["dimension"] == dims["C"]
    assert verdict["point_count"] == 352 == (part.c | part.b1).bit_count()
    assert verdict["min_parts"] == 71
    assert verdict["exceeds_dimension_plus_one"] is True
    assert verdict["full_set"]["min_parts"] == 84
    assert verdict["near_miss"]["min_parts"] == 64
    assert "cover_found" not in verdict["near_miss"]
    assert "is_counterexample" not in verdict["near_miss"]


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
