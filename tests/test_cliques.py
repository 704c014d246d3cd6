"""Clique number, special cliques, exact covers, and the final bounds."""

import random
from collections import Counter

import pytest

from g24verify import cliques, graph
from g24verify.errors import VerificationError

import oracles


def complete_graph(n: int) -> graph.Graph:
    rows = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    return graph.Graph(n, rows)


def cycle_graph(n: int) -> graph.Graph:
    rows = [0] * n
    for i in range(n):
        rows[i] |= 1 << ((i + 1) % n)
        rows[(i + 1) % n] |= 1 << i
    return graph.Graph(n, rows)


def test_max_clique_on_small_graphs():
    size, wit, _ = oracles.max_clique(complete_graph(6))
    assert size == 6 and sorted(wit) == list(range(6))
    size, wit, _ = oracles.max_clique(cycle_graph(5))
    assert size == 2
    size, _, _ = oracles.max_clique(graph.Graph(4, [0, 0, 0, 0]))
    assert size == 1


def test_clique_number_is_5(g, srg_params):
    size, witness, stats = oracles.max_clique(g)
    assert size == 5
    assert len(witness) == 5
    assert stats.edges_scanned == 20800
    cliques.verify_clique(g, witness)
    # The orbit search from the one orbit verify_srg certified agrees with
    # the all-edges oracle at a fraction of its cost.
    sym_size, sym_witness, sym_nodes = cliques.max_clique_by_orbits(g, [0])
    assert sym_size == 5
    cliques.verify_clique(g, sym_witness)
    assert sym_nodes < 5000 < stats.nodes


def test_orbit_search_on_small_graphs():
    # Rotations of C5 and K6 leave single orbits; no map at all leaves every
    # vertex its own orbit, including the isolated ones.
    rot5 = [(v + 1) % 5 for v in range(5)]
    reps = graph.orbit_representatives(5, [rot5])
    assert cliques.max_clique_by_orbits(cycle_graph(5), reps)[0] == 2
    rot6 = [(v + 1) % 6 for v in range(6)]
    reps = graph.orbit_representatives(6, [rot6])
    size, wit, _ = cliques.max_clique_by_orbits(complete_graph(6), reps)
    assert size == 6 and wit == list(range(6)) and reps == [0]
    reps = graph.orbit_representatives(4, [])
    size, wit, _ = cliques.max_clique_by_orbits(graph.Graph(4, [0, 0, 0, 0]), reps)
    assert size == 1 and wit == [0] and reps == [0, 1, 2, 3]


def test_orbit_search_refuses_a_witness_that_is_no_clique(monkeypatch):
    # A search that returns a non-clique: the pair check names the first
    # pair of the witness that is not an edge.
    monkeypatch.setattr(cliques, "_max_clique_in", lambda *args: (2, [2, 3]))
    with pytest.raises(VerificationError) as exc:
        cliques.max_clique_by_orbits(cycle_graph(5), [0])
    assert exc.value.witness == (0, 2)


def test_single_vertex_orbit(g, automorphisms):
    assert graph.orbit_representatives(g.n, automorphisms) == [0]
    assert graph.orbit_representatives(4, [[1, 0, 2, 3]]) == [0, 2, 3]


def test_non_automorphism_is_refused_with_an_edge_witness(g, automorphisms):
    swap = list(range(g.n))
    swap[0], swap[1] = 1, 0
    with pytest.raises(VerificationError) as exc:
        graph.verify_srg(g, automorphisms + [swap])
    i, j = exc.value.witness
    assert g.adjacent(i, j)
    assert not g.adjacent(swap[i], swap[j])


def test_non_bijection_is_refused(g):
    # The witness is the first vertex hit twice or missed.
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph.verify_automorphism(g, [0] * g.n)
    assert err.value.witness == 0
    with pytest.raises(VerificationError, match="not a permutation") as err:
        graph.verify_automorphism(g, list(range(g.n - 1)))
    assert err.value.witness == g.n - 1


def test_map_of_an_asymmetric_adjacency_is_refused():
    # No edge i < j to send anywhere, but rows 0 and 1 differ.
    # The witness is the first pair whose entry the map changes: A_01 = 0 but
    # A_10 = 1.
    with pytest.raises(VerificationError, match="asymmetric") as err:
        graph.verify_automorphism(graph.Graph(2, [0, 1]), [1, 0])
    assert err.value.witness == (0, 1)
    graph.verify_automorphism(graph.Graph(2, [0, 1]), [0, 1])


def test_witness_survives_pair_recheck(g):
    _, witness, _ = cliques.max_clique_by_orbits(g, [0])
    for a in range(5):
        for b in range(a + 1, 5):
            assert g.adjacent(witness[a], witness[b])
    non_neighbour = next(t for t in range(g.n) if t != 0 and not g.adjacent(0, t))
    with pytest.raises(VerificationError):
        cliques.verify_clique(g, [0, non_neighbour])


def test_branch_and_bound_matches_brute_force_on_sample_edges(g):
    rng = random.Random(404)
    edges = list(g.edges())
    sample = rng.sample(edges, 20)
    for i, j in sample:
        common = [t for t in range(g.n) if g.adjacent(i, t) and g.adjacent(j, t)]
        assert len(common) == 36
        fast = oracles.max_clique_through_edge(g, i, j)
        slow = oracles.brute_force_omega_through_edge(g, i, j)
        assert fast == slow
        assert 2 <= fast <= 5


def test_special_clique_enumeration(g, part, isosets, special_cliques):
    assert len(special_cliques) >= 64
    in_c = set(part.c)
    for sc in special_cliques:
        assert set(sc.vertices) <= in_c
        assert len(sc.core) == 3
        for a in range(5):
            for b in range(a + 1, 5):
                assert g.adjacent(sc.vertices[a], sc.vertices[b])
        core_mask = 0
        for idx in sc.core:
            core_mask |= 1 << idx
        inter = isosets[sc.vertices[0]]
        for v in sc.vertices[1:]:
            inter &= isosets[v]
        assert inter == core_mask


def test_special_cliques_sorted_canonically(special_cliques):
    keys = [(sc.core, sc.vertices) for sc in special_cliques]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_exact_cover_is_a_partition(part, cover):
    assert len(cover) == 64
    assert 64 * 5 == 320 == len(part.c)
    seen: set[int] = set()
    for sc in cover:
        assert not seen & set(sc.vertices)
        seen.update(sc.vertices)
    assert seen == set(part.c)


def test_cover_cores_distinct(cover):
    cores = {sc.core for sc in cover}
    assert len(cores) == 64


def test_exact_cover_deterministic(g, part, isosets, special_cliques):
    again = cliques.enumerate_special_cliques(g, part, isosets)
    cliques.verify_special_cover(again, part.c)
    assert again == special_cliques


def test_special_cliques_by_counting_match_the_search_oracle(
    g, part, isosets, special_cliques
):
    assert len(special_cliques) == 64
    assert oracles.enumerate_special_cliques(g, part, isosets) == special_cliques


def test_core_groups_are_4_cliques_or_special_cliques(g, part, isosets):
    # The groups of 4 members are 4-cliques that extend to no special
    # clique; counting must pass them over.
    members: dict[int, set[int]] = {}
    edges: Counter = Counter()
    for i, j in g.edges():
        if part.c_mask >> i & 1 and part.c_mask >> j & 1:
            core = isosets[i] & isosets[j]
            members.setdefault(core, set()).update((i, j))
            edges[core] += 1
    shapes = Counter((len(m), edges[core]) for core, m in members.items())
    assert shapes == {(4, 6): 1920, (5, 10): 64}


def test_a_core_shared_by_six_vertices_is_refused():
    # Six pairwise adjacent vertices of C whose iso-sets share the core
    # {2, 3, 4}: one group of 15 edges, more than a special clique holds.
    core = 0b11100
    isosets = [core | 1 << (5 + v) for v in range(6)]
    part = graph.Partition((), (), (), tuple(range(6)), 0, 0, 0, 0b111111)
    message = r"6 vertices of C share the core \[2, 3, 4\]"
    with pytest.raises(VerificationError, match=message) as exc:
        cliques.enumerate_special_cliques(complete_graph(6), part, isosets)
    assert exc.value.witness == (0, 1, 2, 3, 4, 5)


def test_cover_count_is_one(special_cliques, part, cover):
    # Each vertex of C lies in exactly one special clique, so every exact
    # cover must take that clique for it: the cover is forced.
    multiplicity = Counter(v for sc in special_cliques for v in sc.vertices)
    assert set(multiplicity) == set(part.c)
    assert set(multiplicity.values()) == {1}
    assert cover == special_cliques


def test_removing_a_cover_clique_kills_all_covers(special_cliques, part, cover):
    # 63 disjoint 5-sets reach 315 < 320 vertices: no cover is left, and the
    # check names a vertex of the removed clique.
    reduced = [sc for sc in special_cliques if sc != cover[0]]
    with pytest.raises(VerificationError) as exc:
        cliques.verify_special_cover(reduced, part.c)
    assert exc.value.witness in cover[0].vertices


def test_duplicated_special_clique_is_refused_with_an_overlap_witness(
    special_cliques, part
):
    doubled = special_cliques + [special_cliques[5]]
    with pytest.raises(VerificationError) as exc:
        cliques.verify_special_cover(doubled, part.c)
    assert exc.value.witness == special_cliques[5].vertices[0]
    assert "twice" in str(exc.value)


def test_cover_rejects_foreign_candidates(special_cliques, part):
    with pytest.raises(VerificationError) as exc:
        cliques.verify_special_cover(special_cliques, part.c[:100])
    assert exc.value.witness not in part.c[:100]
    with pytest.raises(VerificationError) as exc:
        cliques.verify_special_cover([], part.c)
    assert exc.value.witness == part.c[0]


def test_borsuk_lower_bound():
    assert cliques.borsuk_lower_bound(352, 5) == 71
    assert cliques.borsuk_lower_bound(416, 5) == 84
    assert cliques.borsuk_lower_bound(320, 5) == 64
    assert cliques.borsuk_lower_bound(321, 5) == 65


def test_final_verdict(certificates, part):
    verdict = cliques.final_verdict(
        certificates, 5, c_size=len(part.c), b1_size=len(part.b1)
    )
    assert verdict["counterexample_dimension"] == 64
    assert verdict["point_count"] == 352
    assert verdict["min_parts"] == 71
    assert verdict["exceeds_dimension_plus_one"] is True
    assert verdict["full_set"]["min_parts"] == 84
    assert verdict["near_miss"]["min_parts"] == 64
    assert "cover_found" not in verdict["near_miss"]
    assert "is_counterexample" not in verdict["near_miss"]
    assert 352 == 320 + 32


def test_final_verdict_refuses_a_bound_within_dimension_plus_one(
    certificates, part
):
    # With C+B1 certified in dimension 70, 71 parts are no more than
    # dimension + 1, and the verdict is withheld.
    raised = [
        c._replace(affine_dim=70) if c.label == "C+B1" else c for c in certificates
    ]
    with pytest.raises(VerificationError, match="verdict withheld") as err:
        cliques.final_verdict(raised, 5, c_size=len(part.c), b1_size=len(part.b1))
    assert err.value.witness == (71, 71)


def test_diameter_smaller_iff_clique(g):
    # Sampled equivalence: a subset has squared diameter below 192 exactly
    # when it is a clique.
    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(2, 5)
        sub = rng.sample(range(g.n), size)
        diam = max(
            oracles.pair_distance_sq(g.rows, a, b)
            for t, a in enumerate(sub)
            for b in sub[t + 1 :]
        )
        is_clique = all(
            g.adjacent(a, b) for t, a in enumerate(sub) for b in sub[t + 1 :]
        )
        assert (diam < 192) == is_clique
