"""The 416-vertex graph on iso-sets, its symmetry and its strongly-regular
structure.

Vertices are the orthogonal bases in canonical order; two are adjacent when
their iso-sets share exactly 3 isotropic points.  Adjacency is bit-packed
(one Python int per row) so neighbourhood intersections are single AND +
popcount operations.  The same data read the other way are the point
columns: for each isotropic point, the mask of the vertices whose iso-set
contains it.  The graph is built from them by a bit-sliced counter, one
vertex at a time, with no loop over vertex pairs.

The srg check also verifies vertex permutations, from isometries of the
Hermitian form, as automorphisms on every row of the graph as built, and
requires them to leave one vertex orbit; facts that automorphisms preserve
are then checked at vertex 0 only.  The same maps permute the point
columns, and one orbit on the points carries the anchored split from
anchor 1 to every anchor.

Each of the split's three blocks is shown isomorphic to the 2-coclique
extension of the halved 5-cube by words read off the block's own adjacency
and then checked on every pair of the block, with no search.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter

from .errors import ConstructionError, VerificationError
from .hermitian import ISOSET_SIZE, ISOTROPIC_COUNT

VERTEX_COUNT = 416


class Graph:
    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self):
        """Ordered pairs (i, j) with i < j, ascending."""
        for i in range(self.n):
            row = self.rows[i] >> (i + 1) << (i + 1)
            while row:
                j = (row & -row).bit_length() - 1
                yield i, j
                row &= row - 1

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def flip_edge(self, i: int, j: int) -> None:
        """Toggle the pair i != j in place; test hook for fault injection.
        `--inject-flip-edge` refuses i == j before any stage runs."""
        self.rows[i] ^= 1 << j
        self.rows[j] ^= 1 << i


def bit_strings(rows: list[int], n: int) -> list[str]:
    """Each bit-packed row as n characters '0'/'1', character j being bit j,
    so that rows can be compared, transposed and permuted as strings."""
    return [format(r, f"0{n}b")[::-1] for r in rows]


SrgParams = namedtuple("SrgParams", "v k lam mu")

# PAPER.md claim 3: the only parameters the srg stage accepts.
SRG = SrgParams(416, 100, 36, 20)

Spectrum = namedtuple("Spectrum", "r f s g_mult")

# The anchored split: B = vertices whose iso-set contains the anchor; each
# block as an ascending vertex tuple and as a bit mask.
Partition = namedtuple("Partition", "b1 b2 b3 c b1_mask b2_mask b3_mask c_mask")


# The block counts (PAPER.md claim 5): the neighbours of a vertex in
# (B1, B2, B3), by the block it lies in.
CLAIM1 = {"B1": (20, 0, 0), "B2": (0, 20, 0), "B3": (0, 0, 20), "C": (8, 8, 8)}


def point_columns(isosets: list[int]) -> list[int]:
    """columns[a], for each isotropic point a = 1..65: the mask of the
    vertices whose iso-set contains a (columns[0] is 0).  The split on
    anchor a has B = columns[a].

    Refuses an iso-set with a member outside 1..65."""
    width = ISOTROPIC_COUNT + 1
    for i, s in enumerate(isosets):
        if s & 1 or s >> width:
            raise ConstructionError(
                f"iso-set {i} has a member outside 1..{ISOTROPIC_COUNT}", witness=i
            )
    # Transpose: column a is character a of every iso-set's bit string.
    bits = bit_strings(isosets, width)
    return [int("".join(col)[::-1], 2) for col in zip(*bits)]


def build_graph(isosets: list[int]) -> tuple[Graph, dict[int, int], list[int]]:
    """Edge (i, j) iff the iso-sets of i and j share exactly 3 points.

    Also returns the census of |iso-set_i & iso-set_j| over all unordered
    pairs, every value that occurs, and the point columns the graph was
    built from.

    Vertex i adds the point columns of its 15 members into a bit-sliced
    counter of four planes c0..c3, so that bit j of the counter is
    |iso-set_i & iso-set_j|: row i is where the count is 3, and the census
    splits the bits j > i by the four planes into the 16 possible counts.
    The check that every iso-set has 15 members is what keeps each count
    below 16, so four planes cannot overflow.
    """
    n = len(isosets)
    if n != VERTEX_COUNT:
        raise ConstructionError(f"expected {VERTEX_COUNT} iso-sets, got {n}", witness=n)
    for i, s in enumerate(isosets):
        if s.bit_count() != ISOSET_SIZE:
            raise ConstructionError(
                f"iso-set {i} has {s.bit_count()} members", witness=i
            )
    columns = point_columns(isosets)
    full = (1 << n) - 1
    rows = [0] * n
    census = [0] * 16
    for i, s in enumerate(isosets):
        c0 = c1 = c2 = c3 = 0
        while s:
            column = columns[(s & -s).bit_length() - 1]
            s &= s - 1
            carry = c0 & column
            c0 ^= column
            column = c1 & carry
            c1 ^= carry
            carry = c2 & column
            c2 ^= column
            c3 ^= carry
        rows[i] = c0 & c1 & ~(c2 | c3) & ~(1 << i)  # count 3 = 0b0011
        # Split the later vertices by plane, highest first, so that split[v]
        # ends as the vertices j > i with count v.
        split = [full >> (i + 1) << (i + 1)]
        for plane in (c3, c2, c1, c0):
            halves = []
            for m in split:
                hit = m & plane
                halves += (m ^ hit, hit)
            split = halves
        for v, m in enumerate(split):
            census[v] += m.bit_count()
    return Graph(n, rows), {c: m for c, m in enumerate(census) if m}, columns


def verify_srg(g: Graph, automorphisms: list[list[int]]) -> SrgParams:
    """Certify the entrywise identity A^2 = k I + lambda A + mu (J - I - A)
    and that the group generated by `automorphisms` is transitive.

    In order, each step naming a witness when it fails:
    1. no loops and constant degree k give the diagonal, in O(n), so a
       flipped edge fails before any pair is read;
    2. on the n - 1 pairs (0, j): A_0j = A_j0, and |N(0) & N(j)| is lambda
       on edges and mu on non-edges, both read off vertex 0;
    3. every map is an automorphism, checked on all n rows;
    4. the maps leave one vertex orbit (the second orbit's smallest vertex
       is the witness otherwise).

    Steps 3 and 4 carry step 2 to every pair.  For a pair (i, j) some
    element s of the group has s(i) = 0.  It satisfies A_s(a)s(b) = A_ab for
    all a, b, so it maps N(i) onto N(0) and N(j) onto N(s(j)): A_ij = A_0s(j)
    = A_s(j)0 = A_ji, and |N(i) & N(j)| = |N(0) & N(s(j))| is lambda or mu as
    A_ij is 1 or 0.  With A symmetric, (A^2)_ij = |N(i) & N(j)|, which gives
    the identity.  No floating point is involved.

    The parameters need no feasibility check: steps 1-4 make every row
    symmetric with degree k, and counting the paths 0 - u - w of length 2
    with w a non-neighbour of 0 gives k(k - lambda - 1) through the k
    neighbours u of 0 and (v - k - 1) mu through the non-neighbours w.
    """
    n, rows = g.n, g.rows
    r0 = rows[0]
    k = r0.bit_count()
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise VerificationError(f"loop at vertex {i}", witness=(i, i))
        if row.bit_count() != k:
            raise VerificationError(
                f"vertex {i} has degree {row.bit_count()}, vertex 0 has {k}",
                witness=(i, row.bit_count()),
            )

    lam = next(((r0 & rows[j]).bit_count() for j in range(1, n) if r0 >> j & 1), 0)
    mu = next(((r0 & rows[j]).bit_count() for j in range(1, n) if not r0 >> j & 1), 0)
    want = (mu, lam)
    for j in range(1, n):
        rj = rows[j]
        adj = r0 >> j & 1
        if adj != rj & 1:
            raise VerificationError(f"asymmetric pair (0,{j})", witness=(0, j))
        common = (r0 & rj).bit_count()
        if common != want[adj]:
            raise VerificationError(
                f"{'edge' if adj else 'non-edge'} (0,{j}) has {common} "
                f"common neighbours, not {want[adj]}",
                witness=(0, j),
            )

    bits = bit_strings(rows, n)
    for perm in automorphisms:
        verify_automorphism(g, perm, bits)
    reps = orbit_representatives(n, automorphisms)
    if reps != [0]:
        raise VerificationError(
            f"the automorphisms leave {len(reps)} vertex orbits, not 1",
            witness=reps[1],
        )

    return SrgParams(n, k, lam, mu)


def verify_automorphism(
    g: Graph, perm: list[int], bits: list[str] | None = None
) -> None:
    """`perm` must be a bijection of the vertices that preserves adjacency:
    row perm[i] of A must be row i with its entries moved by perm, for every
    i, compared as bit strings.  `bits` may pass in `bit_strings(g.rows, g.n)`
    when several maps are checked.  A failure names a witness: the first
    vertex that the map misses or hits more than once; else the first edge
    sent to a non-edge, which exists whenever a bijection fails on a
    symmetric graph; else, on an asymmetric one, the first pair (i, j) whose
    entry the map changes."""
    if sorted(perm) != list(range(g.n)):
        v = next((v for v in range(g.n) if perm.count(v) != 1), g.n)
        raise VerificationError(
            f"vertex map is not a permutation: it hits vertex {v} "
            f"{perm.count(v)} times",
            witness=v,
        )
    if bits is None:
        bits = bit_strings(g.rows, g.n)
    moved = _mover(perm)
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
    i, j = next(
        (i, j)
        for i in range(g.n)
        for j in range(g.n)
        if (rows[i] >> j ^ rows[perm[i]] >> perm[j]) & 1
    )
    raise VerificationError(
        f"vertex map does not preserve the asymmetric adjacency at ({i},{j})",
        witness=(i, j),
    )


def _mover(perm: list[int]) -> itemgetter:
    """Reads a bit string (character v for vertex v) in the order that makes
    "".join of the result the string of its image under `perm`."""
    inverse = [0] * len(perm)
    for v, w in enumerate(perm):
        inverse[w] = v
    return itemgetter(*inverse)


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


def verify_point_action(
    g: Graph, columns: list[int], automorphisms: list[list[int]]
) -> list[list[int]]:
    """Certify that the block counts at anchor 1 hold at every anchor: each
    verified automorphism of g must map every point column onto a point
    column, and the induced point maps must leave one orbit on the 65
    points.  Returns each map's action on the points, counted from 0:
    sigma[a - 1] = b - 1 when the map sends column a onto column b.

    Each failure names a witness: (map, point) for a column whose image is
    no column, or the second orbit's smallest point.

    Why this suffices: let pi be an automorphism of g as built (the srg stage
    verified it on all rows) and pi(B(a)) = B(b), B(a) being column a.  Then
    pi maps the subgraph induced on B(a) onto the one on B(b), so components
    onto components, and C(a) onto C(b); every block count for a vertex v
    at anchor a is the same count for pi(v) at anchor b, up to the order
    of B1, B2, B3, which the 20/0/8 pattern does not see.  The split at a
    therefore has three 32-vertex components with the 20/0/8 pattern iff the
    split at b has, and pi's inverse, also an automorphism, carries it back.
    Each link a -> sigma(a) thus carries the counts both ways, and with one
    orbit, the counts at anchor 1 (verified directly) hold at all 65 anchors.
    """
    bits = bit_strings(columns, g.n)
    point_of = {b: a for a, b in enumerate(bits) if a}
    maps = []
    for m, perm in enumerate(automorphisms):
        moved = _mover(perm)
        sigma = []
        for a in range(1, ISOTROPIC_COUNT + 1):
            b = point_of.get("".join(moved(bits[a])))
            if b is None:
                raise VerificationError(
                    f"automorphism {m} maps the column of point {a} to no column",
                    witness=(m, a),
                )
            sigma.append(b - 1)
        maps.append(sigma)
    reps = orbit_representatives(ISOTROPIC_COUNT, maps)
    if reps != [0]:
        raise VerificationError(
            f"the point maps leave {len(reps)} orbits on the points, not 1",
            witness=reps[1] + 1,
        )
    return maps


def srg_spectrum(params: SrgParams) -> Spectrum:
    """Eigenvalues r > s and their multiplicities, in integer arithmetic.

    Needs the discriminant (lam-mu)^2 + 4(k-mu) to be a perfect square and
    f to be integral, as for SRG (discriminant 576, f = 65), which the srg
    stage pins.  r and s are then integers: the discriminant is
    (lam-mu)^2 mod 4, so its root has the parity of lam - mu.  f solves
    k + f r + g s = 0 with g = v - 1 - f, so the spectrum has trace 0.
    """
    v, k, lam, mu = params
    root = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    # f = ((v - 1) - (2k + (v - 1)(lam - mu)) / root) / 2
    f = (v - 1 - (2 * k + (v - 1) * (lam - mu)) // root) // 2
    return Spectrum(r, f, s, v - 1 - f)


def _components_within(g: Graph, mask: int) -> list[tuple[tuple[int, ...], int]]:
    """Connected components of the subgraph induced on `mask`, each as its
    ascending vertex tuple and its bit mask, ordered by smallest vertex."""
    comps = []
    remaining = mask
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        members = [start]
        while frontier:
            nxt = 0
            for u in frontier:
                nxt |= g.rows[u] & mask & ~seen
            seen |= nxt
            frontier = []
            while nxt:
                u = (nxt & -nxt).bit_length() - 1
                frontier.append(u)
                nxt &= nxt - 1
            members += frontier
        comps.append((tuple(sorted(members)), seen))
        remaining &= ~seen
    return comps


def split_B_C(g: Graph, b_mask: int) -> Partition:
    """Split on B = `b_mask`, the point column of the anchor (the vertices
    whose iso-set contains it), and decompose B into connected components.

    The subgraph induced on B must fall apart into exactly three components
    of 32 vertices, labelled B1, B2, B3 by smallest contained vertex index;
    the component sizes are the witness otherwise.
    """
    comps = _components_within(g, b_mask)
    sizes = [len(comp) for comp, _ in comps]
    if sizes != [32, 32, 32]:
        raise VerificationError(
            f"B splits into components of sizes {sizes}, expected three of 32",
            witness=sizes,
        )
    (b1, m1), (b2, m2), (b3, m3) = comps
    c_mask = ((1 << g.n) - 1) & ~b_mask
    c = tuple(i for i in range(g.n) if c_mask >> i & 1)
    return Partition(b1, b2, b3, c, m1, m2, m3, c_mask)


def verify_claim1(g: Graph, part: Partition) -> None:
    """Adjacency counts into each B_h as CLAIM1 gives them: 20 inside, 0
    across B, 8 from C."""
    m1, m2, m3 = part.b1_mask, part.b2_mask, part.b3_mask
    for block, members in zip(CLAIM1, (part.b1, part.b2, part.b3, part.c)):
        want = CLAIM1[block]
        for i in members:
            row = g.rows[i]
            got = (
                (row & m1).bit_count(),
                (row & m2).bit_count(),
                (row & m3).bit_count(),
            )
            if got != want:
                h = next(h for h in range(3) if got[h] != want[h])
                raise VerificationError(
                    f"vertex {i} sees {got[h]} neighbours in B{h + 1}, "
                    f"expected {want[h]}",
                    witness=(i, h + 1),
                )


# The halved 5-cube: even-weight 5-bit words, adjacent when they differ by
# one of these.
_CUBE_STEPS = tuple(d for d in range(32) if d.bit_count() == 2)


def _cube_words(g: Graph, block: tuple[int, ...], mask: int) -> list[int]:
    """A 5-bit word for each vertex of a block, in the block's order, read
    off its adjacency inside the block (`mask`).  Twins (equal rows inside
    the block) share a word: the smallest vertex's class gets 00000, the
    first five classes not adjacent to it get 11111 with bit k cleared for
    k = 0..4, and every other class the bits k of those five it is not
    adjacent to.  In the model, e_i + e_j is not adjacent to 11111 ^ e_k
    exactly when k is i or j."""
    rows = g.rows
    twins: dict[int, int] = {}  # row inside the block -> smallest twin
    for v in block:
        twins.setdefault(rows[v] & mask, v)
    first, *others = twins.values()
    far = [u for u in others if not rows[first] >> u & 1][:5]
    word = {first: 0} | {u: 31 ^ 1 << k for k, u in enumerate(far)}
    for u in others:
        if u not in word:
            word[u] = sum(1 << k for k, f in enumerate(far) if not rows[u] >> f & 1)
    return [word[twins[rows[v] & mask]] for v in block]


def check_component_structure(g: Graph, part: Partition) -> list[list[int]]:
    """Certify that each of B1, B2, B3 is isomorphic to the 2-coclique
    extension of the halved 5-cube (two vertices per even-weight 5-bit word,
    adjacent at Hamming distance 2), and return each block's words, in the
    block's order.

    The words come from `_cube_words` and are then checked exhaustively, so
    they prove the isomorphism however they were found: 32 vertices, each
    word even and on at most two of them, hence on exactly two, and every
    pair of the block (with itself too) adjacent exactly when its words are
    at distance 2.  A failure names the block and the first vertex or pair
    that is wrong.  The block counts (`verify_claim1`) already give the
    regularity inside each B_h and no edges between them; only the
    isomorphism is new.
    """
    labellings = []
    blocks = (part.b1, part.b2, part.b3)
    masks = (part.b1_mask, part.b2_mask, part.b3_mask)
    for h, block, mask in zip((1, 2, 3), blocks, masks):
        if len(block) != 32:
            raise VerificationError(
                f"B{h} has {len(block)} vertices", witness=len(block)
            )
        words = _cube_words(g, block, mask)
        holders = [0] * 32  # the vertices with each word, as a mask
        for v, w in zip(block, words):
            if w.bit_count() % 2 or holders[w].bit_count() == 2:
                raise VerificationError(
                    f"B{h}: the word {w:05b} of vertex {v} is odd or taken twice",
                    witness=v,
                )
            holders[w] |= 1 << v
        for v, w in zip(block, words):
            model_row = 0
            for d in _CUBE_STEPS:
                model_row |= holders[w ^ d]
            diff = (g.rows[v] & mask) ^ model_row
            if diff:
                u = (diff & -diff).bit_length() - 1
                raise VerificationError(
                    f"B{h}: the words of ({v},{u}) disagree with its adjacency",
                    witness=(v, u),
                )
        labellings.append(words)
    return labellings
