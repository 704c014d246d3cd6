"""Clique number and the special 5-cliques of C.

Claims 7 and 9 are checked at one vertex each and carried to the others by
words in the automorphisms that the srg stage verified (`graph.stabilizer`),
with no search: the clique number at vertex 0, over the orbits on N(0) of
words that fix 0, and the special cliques at min C, over words that fix C.
The search from every edge and the grouping of every edge of C by core are
kept in the tests as the oracles.  The verdict (claim 8) needs no code: the
clique number it divides by is pinned here, so it is a constant of the
pipeline's verdict stage.
"""

from .errors import VerificationError
from .graph import Partition, orbit_representatives
from .hermitian import members

# A special clique: its five vertices and its core's three points, ascending.
SpecialClique = tuple[tuple[int, ...], tuple[int, ...]]


def verify_clique_number(
    rows: list[int], vertex_maps: list[list[int]]
) -> tuple[list[int], int]:
    """Certify that the clique number of the graph `rows` is 5; return a
    5-clique as the witness and the number of local checks made.

    `vertex_maps` must be automorphisms that fix vertex 0 (`graph.stabilizer`)
    in a group with one vertex orbit (`graph.verify_srg`).  A clique of two
    or more vertices then has an image through 0 and a representative u of
    the maps' orbits on N(0).  So for each u and each w in T = N(0) & N(u),
    a triangle in T & N(w) is refused, witness the 6-clique it makes.  The
    first edge met in some T & N(w) gives the 5-clique witness; with none,
    the graph is refused, witness vertex 0.
    """
    r0 = rows[0]
    witness = None
    checks = 0
    for u in orbit_representatives(len(rows), vertex_maps):
        if not r0 >> u & 1:
            continue
        common = r0 & rows[u]
        for w in members(common):
            checks += 1
            inner = common & rows[w]
            for x in members(inner):
                inner ^= 1 << x  # a triangle through x has its others above x
                links = inner & rows[x]
                if links and witness is None:
                    witness = sorted([0, u, w, x, (links & -links).bit_length() - 1])
                for y in members(links):
                    triangle = links & rows[y]
                    if triangle:
                        raise VerificationError(
                            f"6-clique through vertex 0 and {u}",
                            witness=sorted([0, u, w, x, y, triangle.bit_length() - 1]),
                        )
    if witness is None:
        raise VerificationError("no 5-clique through vertex 0", witness=0)
    return witness, checks


def special_cliques(
    rows: list[int], part: Partition, isosets: list[int], c_maps: list[list[int]]
) -> list[SpecialClique]:
    """The special 5-cliques of C, their iso-sets sharing a 3-point core,
    ordered by core.  They tile C, so they are its only exact cover by
    special cliques: an exact cover of C by 5-sets uses |C| / 5 of them.

    The neighbours in C of c0 = min C are grouped by the core they share
    with c0.  Exactly one group may have 4 or more members, and it must have
    4, pairwise adjacent; a failure names c0, or the member that misses
    another.  A special clique through c0 is c0 and such a group, and two
    members of a group contain its core and are adjacent, so they share
    exactly the core: c0 lies in exactly one special clique.

    `c_maps` must map C into C with one orbit (`graph.stabilizer` on
    `graph.STABILIZER_WORDS`).  As products of the maps that the
    anchor-invariance stage verified, they move iso-sets by a map of the
    points, so they send special cliques to special cliques.  Every vertex
    of C thus lies in exactly one, and the orbit of c0's clique lists them
    all.  A core is two members' iso-sets ANDed.
    """
    c0 = next(members(part.c))
    groups: dict[int, int] = {}  # core: the mask of c0's neighbours in C on it
    for j in members(rows[c0] & part.c):
        core = isosets[c0] & isosets[j]
        groups[core] = groups.get(core, 0) | 1 << j
    big = [m for m in groups.values() if m.bit_count() >= 4]
    sizes = sorted(m.bit_count() for m in big)
    if sizes != [4]:
        raise VerificationError(
            f"vertex {c0} has groups of {sizes} neighbours in C on one core, "
            "not one group of 4",
            witness=c0,
        )
    group = big[0]
    for v in members(group):
        if rows[v] & group != group ^ 1 << v:
            raise VerificationError(
                f"vertex {v} of the core group of {c0} misses another", witness=v
            )
    first = tuple(sorted([c0, *members(group)]))
    orbit = {first}
    stack = [first]
    while stack:
        clique = stack.pop()
        for perm in c_maps:
            image = tuple(sorted(perm[v] for v in clique))
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    cover = []
    for vs in orbit:
        core = isosets[vs[0]] & isosets[vs[1]]
        cover.append((vs, tuple(members(core))))
    return sorted(cover, key=lambda c: c[1])  # by core

