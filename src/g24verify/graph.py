"""The 416-vertex graph on iso-sets: its symmetry and its strongly-regular
structure, its Euclidean representation with the certified dimension chain,
and its cliques.  Claims 3 to 7 and 9 are all checks on the graph's rows.

Vertices are the orthogonal bases in canonical order; two are adjacent when
their iso-sets share exactly 3 isotropic points.  Adjacency is bit-packed
(one Python int per row) so neighbourhood intersections are single AND +
popcount operations.  The same data read the other way are the point
columns: for each isotropic point, the mask of the vertices whose iso-set
contains it.  The graph is built from them by a bit-sliced counter, one
vertex at a time, with no loop over vertex pairs.

Each vertex map is lifted from an isometry's map sigma of the isotropic
points: v goes to the vertex whose iso-set is sigma(iso-set v), so it sends
point column a onto point column sigma(a) by construction, and one orbit of
the point maps carries the anchored split from anchor 1 to every anchor.
The srg check verifies the lifted maps as automorphisms on every entry of
the graph as built, and requires them to leave one vertex orbit; facts that
automorphisms preserve are then checked at vertex 0 only.  A map reorders
the rows as a list, and a bit-matrix transpose turns rows into columns, so
no row is permuted bit by bit.  Words in the maps that fix a vertex set
carry a fact checked at one of its vertices to all of them, with no check
of their own: a product of automorphisms is one.  Words that fix C carry
facts about min C over C; words that fix vertex 0 reduce N(0) to four
orbits for the clique number.

Each of the split's three blocks is shown isomorphic to the 2-coclique
extension of the halved 5-cube by words read off the block's own adjacency
and then checked on every pair of the block, with no search.

The Euclidean representation is y = A + 4I, never stored apart from the
graph: its column i is row i of A (A is symmetric, as the srg stage
verified) with 4 at coordinate i, read through `column_digits`.  Its
columns realise the graph as a two-distance point set (squared distances
144 on edges, 192 on non-edges, `DISTANCE_CENSUS`); those distances follow
from the verified srg parameters, so no pair is scanned.  The contrast
vectors p and q are constant on the blocks of the anchored split, so their
inner products with the columns of y follow from the block counts
(`CLAIM1`) and the block sizes: the dimension-chain stage reports them as
constants, and none is counted.

The chain of affine dimensions 65 -> 64 -> 63 of V, C+B1 and C is exact,
each step two-sided, with no elimination: the rank of y from its verified
spectrum, the rank on C from a cubic identity of the graph induced on C,
checked on one row and carried to every row by two words in the verified
automorphisms, and the step between them from p and q.  Every check is
exact integer arithmetic; there is no floating point and no array library.

The clique number and the special 5-cliques of C (claims 7 and 9) are
checked at one vertex each and carried to the others by words in the
automorphisms that the srg stage verified (`stabilizer`), with no search:
the clique number at vertex 0, over the orbits on N(0) of words that fix
0, and the special cliques at min C, over words that fix C.
The search from every edge and the grouping of every edge of C by core are
kept in the tests as the oracles.  The verdict (claim 8) needs no code: the
clique number it divides by is pinned here, so it is a constant of the
pipeline's verdict stage.
"""

from . import VerificationError
from .hermitian import ISOSET_SIZE, ISOTROPIC_COUNT, members

VERTEX_COUNT = 416


def edges(rows: list[int]):
    """Ordered pairs (i, j) with i < j, ascending."""
    for i, row in enumerate(rows):
        for j in members(row >> (i + 1) << (i + 1)):
            yield i, j


def edge_count(rows: list[int]) -> int:
    return sum(row.bit_count() for row in rows) // 2


def flip_edge(rows: list[int], i: int, j: int) -> None:
    """Toggle the pair i != j in place; test hook for fault injection.
    `--inject-flip-edge` refuses i == j before any stage runs."""
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i


_TRANSPOSERS = {}  # n: bit_transposer(n)


def bit_transposer(n: int):
    """A function from the rows of an n x n bit matrix (bit j of rows[i] is
    entry (i, j), each row < 2**n, missing rows 0) to its n columns, packed
    the same way.  Built once per n (`_TRANSPOSERS`): `point_columns`,
    `vertex_permutations` and `verify_srg` share the one for 416.

    The rows are packed into one int, entry (i, j) at bit p = w i + j, w the
    smallest power of two >= max(n, 8), and transposed as a w x w matrix in
    log2 w masked delta swaps.  Swap b exchanges bit b of i with bit b of j:
    entry (i, j) with (i + s, j - s), s = 2**b, wherever bit b of i is 0 and
    bit b of j is 1, a shift of d = (w - 1) s.  Its mask, those entries, is
    built here, not at import, by doubling over the other bits of p.
    """
    if n in _TRANSPOSERS:
        return _TRANSPOSERS[n]
    w = max(8, 1 << (n - 1).bit_length())
    log_w = w.bit_length() - 1
    stages = []
    for b in range(log_w):
        mask = 1 << (1 << b)  # entry (0, 2**b)
        for k in range(2 * log_w):
            if k not in (b, log_w + b):
                mask |= mask << (1 << k)
        stages.append(((w - 1) << b, mask))
    size = w // 8

    def transpose(rows: list[int]) -> list[int]:
        x = int.from_bytes(b"".join(r.to_bytes(size, "little") for r in rows), "little")
        for d, mask in stages:
            t = (x ^ x >> d) & mask
            x ^= t | t << d
        data = x.to_bytes(w * size, "little")
        return [
            int.from_bytes(data[j * size : (j + 1) * size], "little") for j in range(n)
        ]

    _TRANSPOSERS[n] = transpose
    return transpose


# README claim 3: the only parameters (v, k, lam, mu) the srg stage accepts.
SRG = (416, 100, 36, 20)

# (r, f, s, g): the eigenvalues r > s of SRG's adjacency besides k, and their
# multiplicities f and g: r and s are
# (lam - mu +- sqrt((lam - mu)^2 + 4 (k - mu))) / 2 = (16 +- 24) / 2, and f
# solves k + f r + g s = 0 (trace 0) with 1 + f + g = v.  So y = A + 4I has
# eigenvalues 104, 24 and 0, and rank 1 + f.
SPECTRUM = (20, 65, -4, 350)

# Squared distances between the columns of y, with their counts.  With A
# symmetric, loop-free and k-regular, |y_i|^2 = k + 16 and
# <y_i, y_j> = |N(i) & N(j)| + 8 A_ij, so ||y_i - y_j||^2 is
# 2 (k + 16) - 2 (lam + 8) = 144 on the v k / 2 edges and
# 2 (k + 16) - 2 mu = 192 on the other pairs: the subsets of smaller
# diameter are the cliques.
DISTANCE_CENSUS = {144: 20800, 192: 65520}


class Partition:
    """The anchored split: B = the vertices whose iso-set contains the
    anchor, its components B1, B2, B3, and C = the rest, each a bit mask.
    Iterating gives the four masks in that order."""

    def __init__(self, b1: int, b2: int, b3: int, c: int):
        self.b1, self.b2, self.b3, self.c = b1, b2, b3, c

    def __iter__(self):
        return iter((self.b1, self.b2, self.b3, self.c))

    def __eq__(self, other):
        return isinstance(other, Partition) and list(self) == list(other)


# The block counts (README claim 5): the neighbours of a vertex in
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
            raise VerificationError(
                f"iso-set {i} has a member outside 1..{ISOTROPIC_COUNT}", witness=i
            )
    return bit_transposer(max(len(isosets), width))(isosets)[:width]


def build_graph(isosets: list[int]) -> tuple[list[int], list[int]]:
    """The rows of the graph, edge (i, j) iff the iso-sets of i and j share
    exactly 3 points, and the point columns they were built from.

    Vertex i adds the point columns of its 15 members into a bit-sliced
    counter of four planes c0..c3, so that bit j of the counter is
    |iso-set_i & iso-set_j|, and row i is where the count is 3.  The check
    that every iso-set has 15 members is what keeps each count below 16, so
    four planes cannot overflow.
    """
    n = len(isosets)
    if n != VERTEX_COUNT:
        raise VerificationError(f"expected {VERTEX_COUNT} iso-sets, got {n}", witness=n)
    for i, s in enumerate(isosets):
        if s.bit_count() != ISOSET_SIZE:
            raise VerificationError(
                f"iso-set {i} has {s.bit_count()} members", witness=i
            )
    columns = point_columns(isosets)
    rows = [0] * n
    for i, s in enumerate(isosets):
        c0 = c1 = c2 = c3 = 0
        for a in members(s):
            column = columns[a]
            carry = c0 & column
            c0 ^= column
            column = c1 & carry
            c1 ^= carry
            carry = c2 & column
            c2 ^= column
            c3 ^= carry
        rows[i] = c0 & c1 & ~(c2 | c3) & ~(1 << i)  # count 3 = 0b0011
    return rows, columns


def verify_srg(rows: list[int], automorphisms: list[list[int]]) -> tuple:
    """Certify the entrywise identity A^2 = k I + lambda A + mu (J - I - A)
    and that the group generated by `automorphisms` is transitive.

    In order, each step naming a witness when it fails:
    1. no loops and constant degree k give the diagonal, in O(n), so a
       flipped edge fails before any pair is read;
    2. A is symmetric: one transpose of A equals its rows (the first
       (i, j) with A_ij != A_ji is the witness otherwise);
    3. on the n - 1 pairs (0, j), |N(0) & N(j)| is lambda on edges and mu
       on non-edges, both read off vertex 0;
    4. every map is an automorphism, checked on every entry by comparing
       columns with rows, from one transpose per map;
    5. the maps leave one vertex orbit (the second orbit's smallest vertex
       is the witness otherwise).

    Steps 4 and 5 carry step 3 to every pair.  For a pair (i, j) some
    element s of the group has s(i) = 0.  It satisfies A_s(a)s(b) = A_ab for
    all a, b, so it maps N(i) onto N(0) and N(j) onto N(s(j)), and
    |N(i) & N(j)| = |N(0) & N(s(j))| is lambda or mu as A_0s(j) = A_ij is 1
    or 0.  With A symmetric, (A^2)_ij = |N(i) & N(j)|, which gives the
    identity.  No floating point is involved.

    The parameters need no feasibility check: steps 1-5 make every row
    symmetric with degree k, and counting the paths 0 - u - w of length 2
    with w a non-neighbour of 0 gives k(k - lambda - 1) through the k
    neighbours u of 0 and (v - k - 1) mu through the non-neighbours w.
    Each row must be < 2**n, as `build_graph` makes them.  Returns
    (v, k, lam, mu).
    """
    n = len(rows)
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

    columns = bit_transposer(n)(rows)
    if columns != rows:
        i = next(i for i in range(n) if columns[i] != rows[i])
        j = next(j for j in range(n) if (columns[i] ^ rows[i]) >> j & 1)
        raise VerificationError(f"asymmetric pair ({i},{j})", witness=(i, j))

    lam = next(((r0 & rows[j]).bit_count() for j in range(1, n) if r0 >> j & 1), 0)
    mu = next(((r0 & rows[j]).bit_count() for j in range(1, n) if not r0 >> j & 1), 0)
    want = (mu, lam)
    for j in range(1, n):
        adj = r0 >> j & 1
        common = (r0 & rows[j]).bit_count()
        if common != want[adj]:
            raise VerificationError(
                f"{'edge' if adj else 'non-edge'} (0,{j}) has {common} "
                f"common neighbours, not {want[adj]}",
                witness=(0, j),
            )

    for perm in automorphisms:
        _verify_automorphism(rows, perm)
    reps = orbit_representatives(n, automorphisms)
    if reps != [0]:
        raise VerificationError(
            f"the automorphisms leave {len(reps)} vertex orbits, not 1",
            witness=reps[1],
        )

    return n, k, lam, mu


def _verify_automorphism(rows: list[int], perm: list[int]) -> None:
    """`perm` must be a bijection of the vertices that preserves adjacency:
    A[perm[i], perm[j]] = A[i, j] for every i and j.  With the rows reordered
    as B[i] = A[perm[i]], that says column perm[j] of B is column j of A,
    which is row j for a symmetric A, so B is transposed (`bit_transposer`)
    and every column compared with a row.  A failure names a witness: the
    first vertex that the map misses or hits more than once; else an edge
    (j, i) sent to a non-edge, from the first column perm[j] that lacks a
    one of row j.  One does whenever a bijection fails: the moved columns
    hold as many ones as the rows.

    A must be symmetric: on an asymmetric A the answer can be wrong either
    way.  `verify_srg`, the only caller, checks symmetry first."""
    n = len(rows)
    if sorted(perm) != list(range(n)):
        v = next((v for v in range(n) if perm.count(v) != 1), n)
        raise VerificationError(
            f"vertex map is not a permutation: it hits vertex {v} "
            f"{perm.count(v)} times",
            witness=v,
        )
    moved = bit_transposer(n)([rows[p] for p in perm])
    if [moved[p] for p in perm] == rows:
        return
    j = next(j for j, p in enumerate(perm) if rows[j] & ~moved[p])
    lost = rows[j] & ~moved[perm[j]]  # bit i: A[j, i] = 1, A[perm[i], perm[j]] = 0
    i = (lost & -lost).bit_length() - 1
    raise VerificationError(
        f"vertex map sends edge ({j},{i}) to the non-edge ({perm[i]},{perm[j]})",
        witness=(j, i),
    )


def orbit_representatives(n: int, perms: list[list[int]]) -> list[int]:
    """Smallest vertex of each orbit of the group generated by `perms`,
    ascending.  Each orbit is walked once, from its smallest vertex, along
    the links v -> perm[v]; these reach the whole orbit, as a permutation's
    inverse is one of its powers."""
    seen = [False] * n
    reps = []
    for r in range(n):
        if seen[r]:
            continue
        reps.append(r)
        seen[r] = True
        stack = [r]
        while stack:
            v = stack.pop()
            for perm in perms:
                w = perm[v]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return reps


# Words in the srg stage's maps a and b (ISOMETRIES[0] and [1]) and their
# inverses A and B, read left to right: `ab` sends v to b(a(v)).
# STABILIZER_WORDS fix C of the split on anchor 1 and leave one orbit on it;
# VERTEX_WORDS fix vertex 0 and leave four orbits on N(0), whose smallest
# vertices are 16, 17, 28 and 29.
STABILIZER_WORDS = ("abA", "babaBAbAb")
VERTEX_WORDS = ("aBBA", "abaBababAbABABA")


def stabilizer(
    automorphisms: list[list[int]], words: tuple[str, ...], mask: int
) -> list[list[int]]:
    """The vertex maps of `words` in the two verified `automorphisms`,
    certified to map every vertex of `mask` into `mask` and to leave one
    orbit on it.  A failure names a witness: the vertex a word sends out of
    `mask`, or the smallest vertex of a second orbit.

    A product of automorphisms is an automorphism, so the words need no
    check on the rows; each maps the graph induced on `mask` onto itself.
    """
    a, b = automorphisms
    letters = {"a": a, "b": b, "A": [0] * len(a), "B": [0] * len(b)}
    for perm, inverse in ((a, letters["A"]), (b, letters["B"])):
        for v, w in enumerate(perm):
            inverse[w] = v
    maps = []
    for word in words:
        perm = list(range(len(a)))
        for letter in word:
            step = letters[letter]
            perm = list(map(step.__getitem__, perm))
        for v, w in enumerate(perm):
            if mask >> v & 1 and not mask >> w & 1:
                raise VerificationError(
                    f"the word {word} sends vertex {v} out of the set", witness=v
                )
        maps.append(perm)
    reps = [v for v in orbit_representatives(len(a), maps) if mask >> v & 1]
    if len(reps) != 1:
        raise VerificationError(
            f"the words leave {len(reps)} orbits on the set, not 1", witness=reps[1]
        )
    return maps


def vertex_permutations(
    columns: list[int], point_maps: list[list[int]]
) -> list[list[int]]:
    """Lift each point map sigma (counted from 0, as
    `hermitian.point_permutations` gives it) to the vertices: v goes to the
    vertex whose iso-set is sigma(iso-set v).  The iso-sets come from one
    transpose of the point `columns` the graph was built from, and their
    images from one transpose of the columns moved by sigma.  A vertex
    whose image is no iso-set is refused, with witness (map, vertex); a
    sigma that is no permutation always is, since it sends two points to
    one and every two isotropic points share an iso-set, whose image then
    has 14 members.

    Why one orbit of the point maps carries the block counts from anchor 1
    to every anchor: v is in column a iff pi(v) is in column sigma(a), so
    pi, once the srg stage has verified it as an automorphism of the graph
    as built, maps B(a) = column a onto B(sigma(a)), the components of the
    subgraph induced on B(a) onto those on B(sigma(a)), and C(a) onto
    C(sigma(a)).  The split at a thus has three 32-vertex components with
    the 20/0/8 pattern, which does not see the order of B1, B2, B3, iff the
    split at sigma(a) has; pi's inverse, also an automorphism, carries it
    back.  With one orbit on the points, the counts verified at anchor 1
    hold at all 65 anchors.
    """
    transpose = bit_transposer(VERTEX_COUNT)
    isosets = transpose(columns)
    vertex_of = {s: v for v, s in enumerate(isosets)}
    perms = []
    for m, sigma in enumerate(point_maps):
        moved = [0] * len(columns)  # moved[sigma(a)] holds column a
        for a, b in enumerate(sigma):
            moved[b + 1] |= columns[a + 1]
        perm = []
        for v, image in enumerate(transpose(moved)):
            w = vertex_of.get(image)
            if w is None:
                raise VerificationError(
                    f"point map {m} sends the iso-set of vertex {v} to no iso-set",
                    witness=(m, v),
                )
            perm.append(w)
        perms.append(perm)
    return perms


def _components_within(rows: list[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced on `mask`, each as its
    mask, ordered by smallest vertex."""
    comps = []
    remaining = mask
    while remaining:
        seen = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            for u in members(frontier):
                nxt |= rows[u]
            frontier = nxt & mask & ~seen
            seen |= frontier
        comps.append(seen)
        remaining &= ~seen
    return comps


def split_B_C(rows: list[int], b_mask: int) -> Partition:
    """Split on B = `b_mask`, the point column of the anchor (the vertices
    whose iso-set contains it), and decompose B into connected components.

    The subgraph induced on B must fall apart into exactly three components
    of 32 vertices, labelled B1, B2, B3 by smallest contained vertex index;
    the component sizes are the witness otherwise.
    """
    comps = _components_within(rows, b_mask)
    sizes = [comp.bit_count() for comp in comps]
    if sizes != [32, 32, 32]:
        raise VerificationError(
            f"B splits into components of sizes {sizes}, expected three of 32",
            witness=sizes,
        )
    return Partition(*comps, ((1 << len(rows)) - 1) & ~b_mask)


def verify_claim1(rows: list[int], part: Partition) -> None:
    """Adjacency counts into each B_h as CLAIM1 gives them: 20 inside, 0
    across B, 8 from C."""
    m1, m2, m3 = part.b1, part.b2, part.b3
    for want, mask in zip(CLAIM1.values(), part):
        for i in members(mask):
            row = rows[i]
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


def _cube_words(rows: list[int], mask: int) -> list[int]:
    """A 5-bit word for each vertex of the block `mask`, in ascending order,
    read off its adjacency inside the block.  Twins (equal rows inside
    the block) share a word: the smallest vertex's class gets 00000, the
    first five classes not adjacent to it get 11111 with bit k cleared for
    k = 0..4, and every other class the bits k of those five it is not
    adjacent to.  In the model, e_i + e_j is not adjacent to 11111 ^ e_k
    exactly when k is i or j."""
    twins: dict[int, int] = {}  # row inside the block -> smallest twin
    for v in members(mask):
        twins.setdefault(rows[v] & mask, v)
    first, *others = twins.values()
    far = [u for u in others if not rows[first] >> u & 1][:5]
    word = {first: 0} | {u: 31 ^ 1 << k for k, u in enumerate(far)}
    for u in others:
        if u not in word:
            word[u] = sum(1 << k for k, f in enumerate(far) if not rows[u] >> f & 1)
    return [word[twins[rows[v] & mask]] for v in members(mask)]


def check_component_structure(rows: list[int], part: Partition) -> None:
    """Certify that each of B1, B2, B3 is isomorphic to the 2-coclique
    extension of the halved 5-cube (two vertices per even-weight 5-bit word,
    adjacent at Hamming distance 2).

    The words come from `_cube_words` and are then checked exhaustively, so
    they prove the isomorphism however they were found: 32 vertices (no
    check of its own: `split_B_C` refuses any other component sizes before
    this stage runs), each word even and on at most two of them, hence on
    exactly two, and every pair of the block (with itself too) adjacent
    exactly when its words are at distance 2.  A failure names the block
    and the first vertex or pair that is wrong.  The block counts
    (`verify_claim1`) already give the regularity inside each B_h and no
    edges between them; only the isomorphism is new.
    """
    for h, mask in zip((1, 2, 3), part):  # B1, B2, B3; zip stops before C
        words = _cube_words(rows, mask)
        holders = [0] * 32  # the vertices with each word, as a mask
        for v, w in zip(members(mask), words):
            if w.bit_count() % 2 or holders[w].bit_count() == 2:
                raise VerificationError(
                    f"B{h}: the word {w:05b} of vertex {v} is odd or taken twice",
                    witness=v,
                )
            holders[w] |= 1 << v
        for v, w in zip(members(mask), words):
            model_row = 0
            for d in _CUBE_STEPS:
                model_row |= holders[w ^ d]
            diff = (rows[v] & mask) ^ model_row
            if diff:
                u = (diff & -diff).bit_length() - 1
                raise VerificationError(
                    f"B{h}: the words of ({v},{u}) disagree with its adjacency",
                    witness=(v, u),
                )


# The eigenvalues of A_C, the adjacency of the graph induced on C, with
# their multiplicities; `certified_dimension_chain` derives them.
C_SPECTRUM = {76: 1, 16: 48, 12: 15, -4: 256}

# (A_C - 16)(A_C - 12)(A_C + 4) = C_IDENTITY J, as `verify_c_identity` checks.
C_IDENTITY = 960


def column_digits(rows: list[int], i: int) -> str:
    """Column i of y = A + 4I, one character per coordinate: '4' at i, else
    bit t of row i of A, which is A[t, i] since A is symmetric."""
    bits = format(rows[i], f"0{len(rows)}b")[::-1]
    return f"{bits[:i]}4{bits[i + 1:]}"


def verify_c_identity(rows: list[int], part: Partition) -> None:
    """Certify (A_C - 16)(A_C - 12)(A_C + 4) = 960 J on row c0 = min C, that
    is A_C^3 - 24 A_C^2 + 80 A_C + 768 I = 960 J there, A_C being the
    adjacency of the graph induced on C; a failure names the vertex u of C
    whose entry (c0, u) is wrong.

    (A_C^2)[c0, u] is one popcount of rows c0 and u inside C.  (A_C^3)[c0, u]
    is the sum over w in C of (A_C^2)[c0, w] A_C[w, u]: the w are grouped by
    that value, and each group takes one popcount with row u.  Rows are read
    as columns, which the srg stage's symmetry allows.
    """
    c0 = next(members(part.c))
    inside = {u: rows[u] & part.c for u in members(part.c)}  # A_C, row by row
    r0 = inside[c0]
    square = {u: (r0 & row).bit_count() for u, row in inside.items()}
    levels: dict[int, int] = {}  # (A_C^2)[c0, w]: the mask of those w
    for w, t in square.items():
        levels[t] = levels.get(t, 0) | 1 << w
    for u, row in inside.items():
        cube = sum(t * (m & row).bit_count() for t, m in levels.items())
        got = cube - 24 * square[u] + 80 * (r0 >> u & 1) + 768 * (u == c0)
        if got != C_IDENTITY:
            raise VerificationError(
                f"(A_C - 16)(A_C - 12)(A_C + 4) is {got} at ({c0},{u}), "
                f"not {C_IDENTITY}",
                witness=u,
            )


def certified_dimension_chain(rows: list[int], part: Partition) -> list[dict]:
    """Certificates for the affine dimensions of V, C+B1 and C, each the
    linear rank of its columns of y minus one: every column lies on the
    hyperplane <1, y_i> = 104 off the origin.  Each is the report's dict,
    with the keys set, size, affine_dim, linear_rank and argument.

    - V: y has eigenvalues 104, 24, 0 with multiplicities 1, f, g
      (`SPECTRUM`), so rank y = 1 + f = 66.
    - C: the words `STABILIZER_WORDS` are automorphisms that map C
      onto C with one orbit, so they carry the identity of
      `verify_c_identity` from row c0 to every row: p(A_C) = 960 J with
      p(x) = (x - 16)(x - 12)(x + 4).  A_C is symmetric and 76-regular
      (100 neighbours, 24 of them in B by the block counts).  An eigenvector
      orthogonal to the all-ones vector has p(theta) = 0, so theta is 16, 12
      or -4, and 76 is simple.  With 319 of them, tr A_C = 0 (no loops) and
      tr A_C^2 = 320 * 76, the multiplicities a, b, c of 16, 12, -4 solve
      a + b + c = 319, 16a + 12b - 4c = -76 and 256a + 144b + 16c = 18544:
      48, 15, 256 (`C_SPECTRUM`).  So rank y[C, C] = rank(A_C + 4I) =
      320 - 256 = 64, and since y is positive semidefinite,
      rank y[:, C] = rank y[C, C].
    - C+B1: q is orthogonal to every column of C and <q, y_j> = 48 on B1, so
      a column of B1 lies outside the span of C: rank >= 65.  p is
      orthogonal to every column of C+B1 and <p, y_j> = 24 on B2, so these
      columns lie in a proper subspace of the column space: rank <= 65.

    It relies on what earlier stages of the same run proved and does not
    check it again: the srg stage (A is the symmetric, loop-free
    srg(416, 100, 36, 20) and its automorphisms are verified on every
    entry), the block-counts stage (the 20/0/8 counts, from which the
    patterns of <p, y_i> and <q, y_i> follow, as the dimension-chain stage
    reports them), and `stabilizer` on the words, which that stage
    runs first and whose maps the special-cover stage reuses.
    """
    verify_c_identity(rows, part)
    size_c = part.c.bit_count()
    rank_y = 1 + SPECTRUM[1]
    degree_c = SRG[1] - sum(CLAIM1["C"])  # k less the neighbours in B
    rank_c = size_c - C_SPECTRUM[-4]
    hyperplane = "every column satisfies <1, y_i> = 104, a hyperplane off the origin"
    sets = [
        (
            "V",
            len(rows),
            rank_y,
            [f"srg identity verified, so y = A + 4I has rank 1 + f = {rank_y}"],
        ),
        (
            "C+B1",
            size_c + part.b1.bit_count(),
            rank_c + 1,
            [
                "q is orthogonal to every column of C and <q, y_j> = 48 on B1, "
                f"so the rank exceeds {rank_c}",
                "p is orthogonal to every column of the set and <p, y_j> = 24 "
                f"on B2, so the rank is below {rank_y}",
            ],
        ),
        (
            "C",
            size_c,
            rank_c,
            [
                f"(A_C - 16)(A_C - 12)(A_C + 4) = {C_IDENTITY} J, verified on row "
                f"{next(members(part.c))} and carried to every row of C by "
                f"the words {', '.join(STABILIZER_WORDS)}",
                f"A_C is {degree_c}-regular with trace 0, so its spectrum is "
                + " ".join(f"({t})^{m}" for t, m in C_SPECTRUM.items()),
                f"y is positive semidefinite, so the rank is rank(A_C + 4I) = {rank_c}",
            ],
        ),
    ]
    return [
        {
            "set": label,
            "size": size,
            "affine_dim": rank - 1,
            "linear_rank": rank,
            "argument": argument + [hyperplane],
        }
        for label, size, rank, argument in sets
    ]


# A special clique: its five vertices and its core's three points, ascending.
SpecialClique = tuple[tuple[int, ...], tuple[int, ...]]


def verify_clique_number(
    rows: list[int], vertex_maps: list[list[int]]
) -> tuple[list[int], int]:
    """Certify that the clique number of the graph `rows` is 5; return a
    5-clique as the witness and the number of local checks made.

    `vertex_maps` must be automorphisms that fix vertex 0 (`stabilizer`)
    in a group with one vertex orbit (`verify_srg`).  A clique of two
    or more vertices then has an image through 0 and a representative u of
    the maps' orbits on N(0).  So for each u and each w in T = N(0) & N(u),
    a triangle in T & N(w) above w is refused, witness the 6-clique it
    makes.  The search stays exhaustive: a 6-clique through 0 and u is met
    at w its smallest other vertex, with the other three above w.  The
    first edge met in some T & N(w) above w gives the 5-clique witness (the
    edge of a 5-clique through 0 and u lies above its smallest other vertex
    too); with none, the graph is refused, witness vertex 0.
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
            inner = common & rows[w] >> w + 1 << w + 1
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

    `c_maps` must map C into C with one orbit (`stabilizer` on
    `STABILIZER_WORDS`).  As products of the maps that the
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

