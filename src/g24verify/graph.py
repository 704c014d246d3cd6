"""The 416-vertex graph on iso-sets, its symmetry and its strongly-regular
structure.

Vertices are the orthogonal bases in canonical order; two are adjacent when
their iso-sets share exactly 3 isotropic points.  Adjacency is bit-packed
(one Python int per row) so neighbourhood intersections are single AND +
popcount operations.

The srg check also verifies vertex permutations, from isometries of the
Hermitian form, as automorphisms on every row of the graph as built, and
requires them to leave one vertex orbit; facts that automorphisms preserve
are then checked at vertex 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import ConstructionError, VerificationError

VERTEX_COUNT = 416
ADJACENCY_OVERLAP = 3


@dataclass
class Graph:
    n: int
    rows: list[int]

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
        """Toggle one edge in place; test hook for fault injection."""
        if i == j:
            raise ValueError("cannot flip a loop")
        self.rows[i] ^= 1 << j
        self.rows[j] ^= 1 << i


def bit_strings(rows: list[int], n: int) -> list[str]:
    """Each bit-packed row as n characters '0'/'1', character j being bit j,
    so that rows can be compared, transposed and permuted as strings."""
    return [format(r, f"0{n}b")[::-1] for r in rows]


@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int

    def feasible(self) -> bool:
        """k(k - lam - 1) = (v - k - 1) mu, the basic counting identity."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu


@dataclass(frozen=True)
class Spectrum:
    r: Fraction
    f: int
    s: Fraction
    g_mult: int


@dataclass
class Partition:
    """The anchored split: B = vertices whose iso-set contains the anchor."""

    anchor: int
    b1: tuple[int, ...]
    b2: tuple[int, ...]
    b3: tuple[int, ...]
    c: tuple[int, ...]
    b1_mask: int
    b2_mask: int
    b3_mask: int
    c_mask: int

    def block_of(self, i: int) -> str:
        if self.b1_mask >> i & 1:
            return "B1"
        if self.b2_mask >> i & 1:
            return "B2"
        if self.b3_mask >> i & 1:
            return "B3"
        return "C"

    def b_masks(self) -> tuple[int, int, int]:
        return self.b1_mask, self.b2_mask, self.b3_mask


def build_graph(isosets: list[int]) -> tuple[Graph, dict[int, int]]:
    """Edge (i, j) iff the iso-sets of i and j share exactly 3 indices.

    Also returns the census of |iso-set_i & iso-set_j| over all unordered
    pairs, counted in the same pair loop.
    """
    n = len(isosets)
    if n != VERTEX_COUNT:
        raise ConstructionError(f"expected {VERTEX_COUNT} iso-sets, got {n}")
    for i, s in enumerate(isosets):
        if s.bit_count() != 15:
            raise ConstructionError(f"iso-set {i} has {s.bit_count()} members")
    rows = [0] * n
    census = [0] * 16
    for i in range(n):
        si = isosets[i]
        for j in range(i + 1, n):
            c = (si & isosets[j]).bit_count()
            census[c] += 1
            if c == ADJACENCY_OVERLAP:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows), {c: m for c, m in enumerate(census) if m}


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
       is the witness otherwise);
    5. the parameters are feasible.

    Steps 3 and 4 carry step 2 to every pair.  For a pair (i, j) some
    element s of the group has s(i) = 0.  It satisfies A_s(a)s(b) = A_ab for
    all a, b, so it maps N(i) onto N(0) and N(j) onto N(s(j)): A_ij = A_0s(j)
    = A_s(j)0 = A_ji, and |N(i) & N(j)| = |N(0) & N(s(j))| is lambda or mu as
    A_ij is 1 or 0.  With A symmetric, (A^2)_ij = |N(i) & N(j)|, which gives
    the identity.  No floating point is involved.
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

    params = SrgParams(n, k, lam, mu)
    if not params.feasible():
        raise VerificationError(f"infeasible srg parameters {params}")
    return params


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


def srg_spectrum(params: SrgParams) -> Spectrum:
    """Eigenvalues r > s and their multiplicities, in exact arithmetic.

    Requires the discriminant (lam-mu)^2 + 4(k-mu) to be a perfect square;
    the conference-graph case is rejected as out of scope.
    """
    if not params.feasible():
        raise ValueError(f"infeasible parameters {params}")
    v, k, lam, mu = params.v, params.k, params.lam, params.mu
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc:
        raise ValueError(f"discriminant {disc} is not a perfect square")
    r = Fraction(lam - mu + root, 2)
    s = Fraction(lam - mu - root, 2)
    f_frac = Fraction(v - 1, 1) - Fraction(2 * k + (v - 1) * (lam - mu), root)
    f_frac /= 2
    if f_frac.denominator != 1:
        raise ValueError(f"non-integral multiplicity f = {f_frac}")
    f = int(f_frac)
    g_mult = v - 1 - f
    if k + f * r + g_mult * s != 0:
        raise VerificationError("spectrum fails the zero-trace identity")
    return Spectrum(r, f, s, g_mult)


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


def split_B_C(g: Graph, isosets: list[int], anchor: int = 1) -> Partition:
    """Split on the anchor index and decompose B into connected components.

    B is the set of vertices whose iso-set contains `anchor`; its induced
    subgraph must fall apart into exactly three components of 32 vertices,
    labelled B1, B2, B3 by smallest contained vertex index.
    """
    if not 1 <= anchor <= 65:
        raise ValueError(f"anchor {anchor} out of range 1..65")
    b_mask = 0
    c = []
    for i, s in enumerate(isosets):
        if s >> anchor & 1:
            b_mask |= 1 << i
        else:
            c.append(i)
    comps = _components_within(g, b_mask)
    sizes = [len(comp) for comp, _ in comps]
    if len(comps) != 3:
        raise VerificationError(
            f"B splits into {len(comps)} components, expected 3", witness=sizes
        )
    if sizes != [32, 32, 32]:
        raise VerificationError(f"component sizes {sizes}, expected [32, 32, 32]")
    (b1, m1), (b2, m2), (b3, m3) = comps
    c_mask = ((1 << g.n) - 1) & ~b_mask
    return Partition(anchor, b1, b2, b3, tuple(c), m1, m2, m3, c_mask)


def verify_claim1(g: Graph, part: Partition) -> None:
    """Adjacency counts into each B_h: 20 inside, 0 across B, 8 from C."""
    m1, m2, m3 = part.b_masks()
    blocks = (
        (part.b1, (20, 0, 0)),
        (part.b2, (0, 20, 0)),
        (part.b3, (0, 0, 20)),
        (part.c, (8, 8, 8)),
    )
    for block, want in blocks:
        for i in block:
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


def halved_5cube() -> Graph:
    """Even-weight 5-bit words, adjacent at Hamming distance 2 (16 vertices)."""
    words = [w for w in range(32) if bin(w).count("1") % 2 == 0]
    n = len(words)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (words[i] ^ words[j]).bit_count() == 2:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def coclique_extension(g: Graph, size: int = 2) -> Graph:
    """Blow each vertex up into a coclique of `size`; copies inherit edges."""
    n = g.n * size
    rows = [0] * n
    for i in range(g.n):
        for j in range(g.n):
            if g.adjacent(i, j):
                for a in range(size):
                    for b in range(size):
                        rows[i * size + a] |= 1 << (j * size + b)
    return Graph(n, rows)


def _induced(g: Graph, vertices: tuple[int, ...]) -> Graph:
    pos = {v: t for t, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for t, v in enumerate(vertices):
        row = g.rows[v]
        for u in vertices:
            if row >> u & 1:
                rows[t] |= 1 << pos[u]
    return Graph(len(vertices), rows)


def find_isomorphism(ga: Graph, gb: Graph) -> list[int] | None:
    """Backtracking isomorphism search; returns image of each ga vertex."""
    if ga.n != gb.n:
        return None
    n = ga.n
    if sorted(ga.degree(i) for i in range(n)) != sorted(gb.degree(i) for i in range(n)):
        return None

    # Map ga vertices in an order that keeps each new vertex attached to the
    # mapped prefix, so adjacency constraints bite as early as possible.
    order: list[int] = [0]
    placed = 1 << 0
    while len(order) < n:
        best, best_links = -1, -1
        for v in range(n):
            if placed >> v & 1:
                continue
            links = (ga.rows[v] & placed).bit_count()
            if links > best_links:
                best, best_links = v, links
        order.append(best)
        placed |= 1 << best

    full = (1 << n) - 1
    image = [-1] * n

    def extend(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        cand = full & ~used
        for u in order[:depth]:
            if ga.adjacent(v, u):
                cand &= gb.rows[image[u]]
            else:
                cand &= ~gb.rows[image[u]]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            image[v] = w
            if extend(depth + 1, used | 1 << w):
                return True
        image[v] = -1
        return False

    return image if extend(0, 0) else None


def check_component_structure(g: Graph, part: Partition, with_isomorphism: bool = True) -> dict:
    """Regularity of each component, cross-component silence, and (optionally)
    isomorphism of each B_h with the 2-coclique extension of the halved
    5-cube."""
    result: dict = {"regular_20": True, "cross_edges": 0}
    blocks = [part.b1, part.b2, part.b3]
    masks = part.b_masks()
    for h, (block, mask) in enumerate(zip(blocks, masks), start=1):
        for i in block:
            deg = (g.rows[i] & mask).bit_count()
            if deg != 20:
                raise VerificationError(
                    f"vertex {i} has degree {deg} inside B{h}, expected 20",
                    witness=(i, h),
                )
    for h in range(3):
        for hh in range(h + 1, 3):
            for i in blocks[h]:
                cross = (g.rows[i] & masks[hh]).bit_count()
                if cross:
                    raise VerificationError(
                        f"vertex {i} of B{h + 1} touches B{hh + 1}", witness=i
                    )
    if with_isomorphism:
        model = coclique_extension(halved_5cube(), 2)
        result["model_vertices"] = model.n
        isos = []
        for h, block in enumerate(blocks, start=1):
            mapping = find_isomorphism(model, _induced(g, block))
            if mapping is None:
                raise VerificationError(
                    f"B{h} is not isomorphic to the 2-coclique extension "
                    "of the halved 5-cube"
                )
            isos.append(mapping)
        result["isomorphisms_found"] = len(isos)
    return result
