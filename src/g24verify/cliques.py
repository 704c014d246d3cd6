"""Clique number, special 5-cliques of C, exact covers, and the verdict.

The clique number is settled through symmetry: omega(G) = 1 + max over v of
the clique number of the neighbourhood N(v), and an automorphism s maps N(v)
onto N(s(v)), so one branch-and-bound search with a greedy colouring bound
per vertex orbit suffices.  The orbits are those `graph.verify_srg`
certified, after verifying the automorphisms on every row of the graph as
built; this module verifies no permutation itself.  The search from every
edge is kept in the tests as the oracle.  The special 5-cliques of C
(iso-sets sharing a 3-point core) are found by counting the edges of C per
core, and they tile C, which a count also settles: 64 pairwise disjoint
5-cliques covering the 320 vertices of C are the only exact cover of C by
special cliques.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import VerificationError
from .graph import Graph, Partition


SpecialClique = namedtuple("SpecialClique", "vertices core")


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


def max_clique_by_orbits(
    g: Graph, representatives: list[int]
) -> tuple[int, list[int], int]:
    """Exact clique number, a witness, and the number of search nodes,
    searched from one vertex per orbit.

    `representatives` must hold a vertex of every orbit of a group of
    verified automorphisms of `g`, as `graph.verify_srg` certifies.  The
    largest clique through v is 1 + omega(N(v)), the same on the whole orbit
    of v.
    """
    best = 0
    witness: list[int] = []
    counter = [0]
    for v in representatives:
        sub_size, sub_wit = _max_clique_in(g.rows, g.rows[v], max(best - 1, 0), counter)
        if 1 + sub_size > best:
            best = 1 + sub_size
            witness = sorted([v] + sub_wit)
    verify_clique(g, witness)
    return best, witness, counter[0]


def verify_clique(g: Graph, vertices: list[int]) -> None:
    """Independent pass re-testing every pair of the witness."""
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            if not g.adjacent(vertices[a], vertices[b]):
                raise VerificationError(
                    f"witness pair ({vertices[a]},{vertices[b]}) is not an edge",
                    witness=(vertices[a], vertices[b]),
                )


def enumerate_special_cliques(
    g: Graph, part: Partition, isosets: list[int]
) -> list[SpecialClique]:
    """All 5-cliques inside C whose five iso-sets share a 3-point core,
    ordered by core, found by counting instead of by search.

    The edges inside C are grouped by their core, the 3 points their two
    iso-sets share, into a member mask and an edge count per core.  Within
    a special clique every pairwise intersection is its core, so its 10
    edges all fall in that core's group.  A group of exactly 5 members and
    10 edges is therefore a special clique, and a special clique is one
    such group, as long as no group has more than 5 members; a larger group
    is refused, witness its members.
    """
    from .hermitian import isoset_members

    groups: dict[int, list[int]] = {}  # core: [member mask, edge count]
    for i in part.c:
        row = g.rows[i] & part.c_mask
        row = row >> (i + 1) << (i + 1)
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            group = groups.setdefault(isosets[i] & isosets[j], [0, 0])
            group[0] |= 1 << i | 1 << j
            group[1] += 1

    cliques: list[SpecialClique] = []
    for core, (members, edges) in groups.items():
        if members.bit_count() < 5:
            continue
        vertices = []
        while members:
            vertices.append((members & -members).bit_length() - 1)
            members &= members - 1
        if len(vertices) > 5:
            raise VerificationError(
                f"{len(vertices)} vertices of C share the core "
                f"{isoset_members(core)}",
                witness=tuple(vertices),
            )
        if edges == 10:
            cliques.append(
                SpecialClique(tuple(vertices), tuple(isoset_members(core)))
            )
    cliques.sort(key=lambda c: c.core)
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
    cliques, so they hold at most max_part_size points each.  The max-clique
    stage pins max_part_size to 5."""
    return -(-n_points // max_part_size)


def final_verdict(certificates, clique_number: int, c_size: int, b1_size: int) -> dict:
    """Assemble the counterexample verdict from what earlier stages proved.

    Nothing is re-checked here: the srg stage pins srg(416, 100, 36, 20),
    whose f = 65 makes the chain's dimensions 65, 64 and 63; the max-clique
    stage refuses any clique number but 5; and the partition stage refuses
    any split of the 416 vertices but 32/32/32 and 320.
    """
    dims = {c.label: c.affine_dim for c in certificates}
    points = c_size + b1_size
    parts = borsuk_lower_bound(points, clique_number)
    full_parts = borsuk_lower_bound(416, clique_number)
    near_parts = borsuk_lower_bound(c_size, clique_number)
    verdict = {
        "counterexample_dimension": dims["C+B1"],
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
        },
        "note": "a stronger lower bound of 72 parts has been reported; not verified here",
    }
    if not verdict["exceeds_dimension_plus_one"]:
        raise VerificationError(
            "verdict withheld: bound does not exceed dim + 1",
            witness=(parts, dims["C+B1"] + 1),
        )
    verdict["statement"] = (
        f"{points} points of affine dimension {dims['C+B1']} need at least "
        f"{parts} parts of smaller diameter; {parts} > {dims['C+B1'] + 1}"
    )
    return verdict
