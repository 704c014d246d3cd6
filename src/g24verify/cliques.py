"""Clique number, special 5-cliques of C, exact covers, and the verdict.

The clique number is settled through symmetry: omega(G) = 1 + max over v of
the clique number of the neighbourhood N(v), and an automorphism s maps N(v)
onto N(s(v)), so one branch-and-bound search with a greedy colouring bound
per vertex orbit suffices.  The automorphisms come in as vertex
permutations and are verified on every row of the adjacency of the graph
as built before they are trusted, so the proof rests on the graph, not on
the geometry that suggested them.  `max_clique`, which searches from every
edge, is the slow oracle the symmetric search is tested against.  The
special 5-cliques of C (iso-sets sharing a 3-point core) tile C, which a
count settles: 64 pairwise disjoint 5-cliques covering the 320 vertices of
C are the only exact cover of C by special cliques.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import VerificationError
from .graph import Graph, Partition, bit_strings


@dataclass(frozen=True)
class SpecialClique:
    vertices: tuple[int, int, int, int, int]
    core: tuple[int, int, int]


@dataclass
class CliqueSearchStats:
    edges_scanned: int
    nodes: int


@dataclass
class OrbitSearchStats:
    automorphisms_verified: int
    orbit_representatives: int
    nodes: int


def _color_bound_order(rows: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy colouring of the candidate set; returns (vertex, bound) pairs
    in colouring order, bound = number of colour classes used so far."""
    classes: list[int] = []
    order: list[tuple[int, int]] = []
    m = cand
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        for ci, cmask in enumerate(classes):
            if cmask & rows[v] == 0:
                classes[ci] = cmask | 1 << v
                order.append((v, ci + 1))
                break
        else:
            classes.append(1 << v)
            order.append((v, len(classes)))
    order.sort(key=lambda t: t[1])
    return order


def _max_clique_in(
    rows: list[int], cand: int, best_floor: int, counter: list[int]
) -> tuple[int, list[int]]:
    """Exact maximum clique inside the induced subgraph on `cand`.

    `best_floor` prunes branches that cannot beat the caller's incumbent;
    the returned size is exact whenever it exceeds the floor.
    """
    best_size = best_floor
    best_wit: list[int] = []
    stack: list[int] = []

    def expand(cand_mask: int) -> None:
        nonlocal best_size, best_wit
        counter[0] += 1
        order = _color_bound_order(rows, cand_mask)
        for idx in range(len(order) - 1, -1, -1):
            v, bound = order[idx]
            if len(stack) + bound <= best_size:
                return
            stack.append(v)
            nxt = cand_mask & rows[v]
            if nxt:
                expand(nxt)
            elif len(stack) > best_size:
                best_size = len(stack)
                best_wit = list(stack)
            stack.pop()
            cand_mask &= ~(1 << v)

    expand(cand)
    return best_size, best_wit


def max_clique(g: Graph) -> tuple[int, list[int], CliqueSearchStats]:
    """Exact clique number with witness; the search exhausts every edge.
    Slow oracle for `max_clique_by_orbits`.

    For each edge (i, j), i < j, candidates are the common neighbours above
    j, so every clique is rooted at its two smallest vertices exactly once.
    """
    if g.edge_count() == 0:
        witness = [0] if g.n else []
        return len(witness), witness, CliqueSearchStats(0, 0)
    best = 2
    witness = []
    counter = [0]
    edges = 0
    for i, j in g.edges():
        edges += 1
        if not witness:
            witness = [i, j]
        above_j = g.rows[j] >> (j + 1) << (j + 1)
        cand = g.rows[i] & above_j
        if 2 + cand.bit_count() <= best:
            continue
        sub_size, sub_wit = _max_clique_in(g.rows, cand, best - 2, counter)
        if 2 + sub_size > best:
            best = 2 + sub_size
            witness = sorted([i, j] + sub_wit)
    verify_clique(g, witness)
    return best, witness, CliqueSearchStats(edges, counter[0])


def verify_automorphism(
    g: Graph, perm: list[int], bits: list[str] | None = None
) -> None:
    """`perm` must be a bijection of the vertices that preserves adjacency:
    row perm[i] of A must be row i with its entries moved by perm, for every
    i, compared as bit strings.  `bits` may pass in `bit_strings(g.rows, g.n)`
    when several maps are checked.  A failure names the first edge sent to a
    non-edge, which exists whenever a bijection fails on a symmetric graph."""
    if sorted(perm) != list(range(g.n)):
        raise VerificationError("vertex map is not a permutation")
    if bits is None:
        bits = bit_strings(g.rows, g.n)
    inverse = [0] * g.n
    for v, w in enumerate(perm):
        inverse[w] = v
    moved = itemgetter(*inverse)
    if all("".join(moved(bits[i])) == bits[perm[i]] for i in range(g.n)):
        return
    rows = g.rows
    for i, j in g.edges():
        if not rows[perm[i]] >> perm[j] & 1:
            raise VerificationError(
                f"vertex map sends edge ({i},{j}) to the non-edge "
                f"({perm[i]},{perm[j]})",
                witness=(i, j),
            )
    raise VerificationError("vertex map does not preserve the asymmetric adjacency")


def orbit_representatives(n: int, perms: list[list[int]]) -> list[int]:
    """Smallest vertex of each orbit of the group generated by `perms`
    (union-find over the links v -> perm[v])."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for perm in perms:
        for v, w in enumerate(perm):
            a, b = find(v), find(w)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [v for v in range(n) if find(v) == v]


def max_clique_by_orbits(
    g: Graph, automorphisms: list[list[int]]
) -> tuple[int, list[int], OrbitSearchStats]:
    """Exact clique number with witness, searched from one vertex per orbit.

    Every permutation is verified as an automorphism of `g` first; the
    largest clique through v is then 1 + omega(N(v)), the same on the whole
    orbit of v.
    """
    bits = bit_strings(g.rows, g.n)
    for perm in automorphisms:
        verify_automorphism(g, perm, bits)
    reps = orbit_representatives(g.n, automorphisms)
    best = 0
    witness: list[int] = []
    counter = [0]
    for v in reps:
        sub_size, sub_wit = _max_clique_in(g.rows, g.rows[v], max(best - 1, 0), counter)
        if 1 + sub_size > best:
            best = 1 + sub_size
            witness = sorted([v] + sub_wit)
    verify_clique(g, witness)
    return best, witness, OrbitSearchStats(len(automorphisms), len(reps), counter[0])


def verify_clique(g: Graph, vertices: list[int]) -> None:
    """Independent pass re-testing every pair of the witness."""
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            if not g.adjacent(vertices[a], vertices[b]):
                raise VerificationError(
                    f"witness pair ({vertices[a]},{vertices[b]}) is not an edge",
                    witness=(vertices[a], vertices[b]),
                )


def max_clique_through_edge(g: Graph, i: int, j: int) -> int:
    """Exact size of the largest clique containing the edge (i, j)."""
    if not g.adjacent(i, j):
        raise ValueError(f"({i},{j}) is not an edge")
    counter = [0]
    sub, _ = _max_clique_in(g.rows, g.rows[i] & g.rows[j], 0, counter)
    return 2 + sub


def brute_force_omega_through_edge(g: Graph, i: int, j: int) -> int:
    """Oracle: largest clique through edge (i, j) by plain enumeration of
    subsets of the common neighbourhood, no pruning tricks."""
    from itertools import combinations

    common = [t for t in range(g.n) if g.rows[i] >> t & 1 and g.rows[j] >> t & 1]
    best = 2
    for size in range(1, len(common) + 1):
        found = False
        for sub in combinations(common, size):
            if all(g.adjacent(a, b) for a in sub for b in sub if a < b):
                found = True
                break
        if found:
            best = 2 + size
        else:
            break
    return best


def enumerate_special_cliques(
    g: Graph, part: Partition, isosets: list[int]
) -> list[SpecialClique]:
    """All 5-cliques inside C whose five iso-sets share a 3-point core.

    Within a clique all pairwise iso-set intersections equal the core, so
    every such clique lives entirely in one group of C-internal edges
    sharing the same 3-point intersection; groups are searched separately.
    """
    from .hermitian import isoset_members

    groups: dict[int, set[int]] = {}
    for i in part.c:
        row = g.rows[i] & part.c_mask
        row = row >> (i + 1) << (i + 1)
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            core = isosets[i] & isosets[j]
            groups.setdefault(core, set()).update((i, j))

    cliques: list[SpecialClique] = []
    for core, members in sorted(groups.items()):
        if len(members) < 5:
            continue
        verts = sorted(members)
        linked = {
            v: {
                u
                for u in verts
                if u != v and g.adjacent(u, v) and isosets[u] & isosets[v] == core
            }
            for v in verts
        }

        def extend(chosen: list[int], candidates: list[int]) -> None:
            if len(chosen) == 5:
                cliques.append(
                    SpecialClique(tuple(chosen), tuple(isoset_members(core)))
                )
                return
            for t, v in enumerate(candidates):
                extend(chosen + [v], [u for u in candidates[t + 1 :] if u in linked[v]])

        extend([], verts)

    cliques.sort(key=lambda c: (c.core, c.vertices))
    return cliques


def verify_special_cover(
    specials: list[SpecialClique], universe: tuple[int, ...]
) -> None:
    """The special cliques must tile `universe`: pairwise disjoint, inside
    it, and together covering it, so there are exactly |universe|/5 of them.

    That makes them the unique exact cover of `universe` by special cliques:
    any exact cover of |universe| vertices by 5-sets uses |universe|/5
    cliques, which is all of them.
    """
    inside = set(universe)
    seen: set[int] = set()
    for sc in specials:
        for v in sc.vertices:
            if v in seen or v not in inside:
                where = "twice" if v in seen else "outside the cover set"
                raise VerificationError(
                    f"special cliques cover vertex {v} {where}", witness=v
                )
            seen.add(v)
    if seen != inside:
        v = min(inside - seen)
        raise VerificationError(f"vertex {v} lies in no special clique", witness=v)


def borsuk_lower_bound(n_points: int, max_part_size: int) -> int:
    """ceil(n_points / max_part_size): parts of smaller diameter are
    cliques, so they hold at most max_part_size points each."""
    if max_part_size < 1:
        raise ValueError("part size must be positive")
    return -(-n_points // max_part_size)


def final_verdict(
    certificates,
    clique_number: int,
    cover: list[SpecialClique] | None,
    c_size: int,
    b1_size: int,
) -> dict:
    """Assemble the counterexample verdict once every dependency holds."""
    dims = {c.label: c.affine_dim for c in certificates}
    if not all(c.passed for c in certificates):
        raise VerificationError("verdict withheld: dimension chain not certified")
    if dims != {"V": 65, "C+B1": 64, "C": 63}:
        raise VerificationError(f"verdict withheld: unexpected dimensions {dims}")
    if clique_number != 5:
        raise VerificationError(
            f"verdict withheld: clique number {clique_number}, expected 5"
        )
    if c_size + b1_size != 352:
        raise VerificationError("verdict withheld: |C| + |B1| != 352")
    points = c_size + b1_size
    parts = borsuk_lower_bound(points, clique_number)
    full_parts = borsuk_lower_bound(416, clique_number)
    near_parts = borsuk_lower_bound(c_size, clique_number)
    verdict = {
        "counterexample_dimension": 64,
        "point_count": points,
        "max_clique": clique_number,
        "min_parts": parts,
        "exceeds_dimension_plus_one": parts > dims["C+B1"] + 1,
        "full_set": {
            "dimension": dims["V"],
            "point_count": 416,
            "min_parts": full_parts,
        },
        "near_miss": {
            "dimension": dims["C"],
            "point_count": c_size,
            "min_parts": near_parts,
            "cover_found": cover is not None and len(cover) == near_parts,
            "is_counterexample": False,
        },
        "note": "a stronger lower bound of 72 parts has been reported; not verified here",
    }
    if not verdict["exceeds_dimension_plus_one"]:
        raise VerificationError("verdict withheld: bound does not exceed dim + 1")
    verdict["statement"] = (
        f"{points} points of affine dimension {dims['C+B1']} need at least "
        f"{parts} parts of smaller diameter; {parts} > {dims['C+B1'] + 1}"
    )
    return verdict
