"""Reference implementations the tests compare the program against.

They are the direct, exhaustive forms of checks the program settles by a
shorter argument: the graph and its intersection census from all 86,320
pairs of iso-sets, the bases from a pairwise scan of the Hermitian form,
the srg identity on all 86,320 pairs, claim 1 split and counted at every
anchor, the distance census by scanning every pair, the contrast products
counted column by column, the clique number by a search from every edge,
the special cliques by a search inside each core's group of edges, the
isomorphism of each B_h with its model by a backtracking search, and the
geometry of lines spelled out point by point.

y = A + 4I is passed to them as its list of column ints: bit t of
columns[i] is y[t, i] off the diagonal, and the diagonal is 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from g24verify import gf16
from g24verify.cliques import SpecialClique, _max_clique_in, verify_clique
from g24verify.errors import ConstructionError, VerificationError
from g24verify.graph import (
    Graph,
    Partition,
    SrgParams,
    bit_strings,
    point_columns,
    split_B_C,
    verify_claim1,
)
from g24verify.hermitian import (
    ISOSET_SIZE,
    ISOTROPIC_COUNT,
    Basis,
    Plane,
    Point,
    hermitian_form,
    is_isotropic,
    isoset_members,
    normalize,
)


def build_graph(isosets: list[int]) -> tuple[Graph, dict[int, int]]:
    """Edge (i, j) iff the iso-sets of i and j share exactly 3 points, and
    the census of the intersection sizes, from one popcount per pair."""
    n = len(isosets)
    rows = [0] * n
    census = [0] * 16
    for i in range(n):
        si = isosets[i]
        for j in range(i + 1, n):
            c = (si & isosets[j]).bit_count()
            census[c] += 1
            if c == 3:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows), {c: m for c, m in enumerate(census) if m}


def orthogonal_masks(points: list[Point], targets: list[Point]) -> list[int]:
    """For each t in `targets`, the mask of the indices x with
    H(points[x], t) = 0, one form evaluation per (x, t)."""
    return [
        sum(1 << x for x, p in enumerate(points) if hermitian_form(p, t) == 0)
        for t in targets
    ]


def enumerate_bases(plane: Plane) -> tuple[list[Basis], list[int]]:
    """The orthogonal bases, sorted by nonisotropic index triple, and the
    polar mask of each nonisotropic point (bit i for isotropic point i),
    from a scan of the form on every pair of points."""
    noniso = plane.nonisotropic
    n = len(noniso)
    orth: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if hermitian_form(noniso[i], noniso[j]) == 0:
                orth[i].append(j)
                orth[j].append(i)
    triples: set[tuple[int, int, int]] = set()
    for i in range(n):
        orth_i = set(orth[i])
        for j in orth[i]:
            if j <= i:
                continue
            completions = [k for k in orth[j] if k in orth_i]
            if len(completions) != 1:
                raise ConstructionError(f"orthogonal pair ({i},{j}) has "
                                        f"{len(completions)} completions")
            triples.add(tuple(sorted((i, j, completions[0]))))
    polar = []
    for t in noniso:
        mask = 0
        for idx, p in enumerate(plane.isotropic, start=1):
            if hermitian_form(p, t) == 0:
                mask |= 1 << idx
        if mask.bit_count() != 5:
            raise ConstructionError(f"polar line of {t} carries "
                                    f"{mask.bit_count()} isotropic points")
        polar.append(mask)
    bases = []
    for tri in sorted(triples):
        f_bc, f_ac, f_ab = (polar[t] for t in tri)
        if f_ab & f_ac or f_ab & f_bc or f_ac & f_bc:
            raise ConstructionError(f"triangle sides of {tri} share isotropic points")
        isoset = f_ab | f_ac | f_bc
        if isoset.bit_count() != ISOSET_SIZE:
            raise ConstructionError(f"iso-set of {tri} has {isoset.bit_count()} members")
        bases.append(Basis(tri, isoset))
    if len(bases) != 416 or len({b.isoset for b in bases}) != 416:
        raise ConstructionError(f"{len(bases)} bases, not 416 distinct")
    return bases, polar


def claim1_at_every_anchor(g: Graph, isosets: list[int]) -> list[Partition]:
    """The anchored split and its 20/0/8 counts, checked directly at each of
    the 65 anchors; the split at anchor a is item a - 1."""
    columns = point_columns(isosets)
    parts = []
    for anchor in range(1, ISOTROPIC_COUNT + 1):
        part = split_B_C(g, columns[anchor])
        verify_claim1(g, part)
        parts.append(part)
    return parts


def halved_5cube() -> Graph:
    """Even-weight 5-bit words, adjacent at Hamming distance 2 (16 vertices),
    vertex t being the t-th such word in increasing order."""
    words = [w for w in range(32) if w.bit_count() % 2 == 0]
    n = len(words)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (words[i] ^ words[j]).bit_count() == 2:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def coclique_extension(g: Graph, size: int = 2) -> Graph:
    """Blow each vertex up into a coclique of `size`; copies inherit edges.
    Copy a of vertex i is vertex i * size + a."""
    n = g.n * size
    rows = [0] * n
    for i in range(g.n):
        for j in range(g.n):
            if g.adjacent(i, j):
                for a in range(size):
                    for b in range(size):
                        rows[i * size + a] |= 1 << (j * size + b)
    return Graph(n, rows)


def induced(g: Graph, vertices: tuple[int, ...]) -> Graph:
    """The subgraph on `vertices`, vertex t standing for vertices[t]."""
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


def verify_srg_all_pairs(g: Graph) -> SrgParams:
    """The srg identity A^2 = k I + lambda A + mu (J - I - A) with no
    symmetry assumed: no loops and constant degree, then every pair i < j
    for symmetry and its common-neighbour count, lambda and mu read off
    vertex 0."""
    n, rows = g.n, g.rows
    r0 = rows[0]
    k = r0.bit_count()
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise VerificationError(f"loop at vertex {i}", witness=(i, i))
        if row.bit_count() != k:
            raise VerificationError(f"vertex {i} has degree {row.bit_count()}",
                                    witness=(i, row.bit_count()))
    lam = next(((r0 & rows[j]).bit_count() for j in range(1, n) if r0 >> j & 1), 0)
    mu = next(((r0 & rows[j]).bit_count() for j in range(1, n) if not r0 >> j & 1), 0)
    want = (mu, lam)
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            adj = ri >> j & 1
            if adj != rj >> i & 1:
                raise VerificationError(f"asymmetric pair ({i},{j})", witness=(i, j))
            if (ri & rj).bit_count() != want[adj]:
                raise VerificationError(f"pair ({i},{j}) has the wrong common "
                                        "neighbour count", witness=(i, j))
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise VerificationError(f"infeasible srg parameters {(n, k, lam, mu)}")
    return SrgParams(n, k, lam, mu)


def entry(columns: list[int], i: int, j: int) -> int:
    """y[i, j], read from column j: 4 on the diagonal, else a bit."""
    return 4 if i == j else columns[j] >> i & 1


def pair_distance_sq(columns: list[int], i: int, j: int) -> int:
    """||y_i - y_j||^2, exactly: coordinates other than i and j contribute 1
    where exactly one of the two columns has a bit, and coordinates i and j
    contribute (4 - y_ij)^2 and (y_ji - 4)^2."""
    if i == j:
        raise ValueError("distance requires two distinct vertices")
    ci, cj = columns[i], columns[j]
    rest = (ci ^ cj) & ~(1 << i | 1 << j)
    return rest.bit_count() + (4 - (cj >> i & 1)) ** 2 + (4 - (ci >> j & 1)) ** 2


def distance_census(columns: list[int], g: Graph) -> dict[int, int]:
    """Every squared pair distance of y, scanned, and checked against
    adjacency: 144 exactly on edges, 192 exactly on non-edges.

    y is first refused, with a witness, if a column has a bit on its
    diagonal or beyond the matrix, or if y is not symmetric.  Then, for
    i < j, ||y_i - y_j||^2 = |y_i|^2 + |y_j|^2 - 2 <y_i, y_j> with
    |y_i|^2 = popcount(columns[i]) + 16 and
    <y_i, y_j> = popcount(columns[i] & columns[j]) + 8 y_ij.  The first bad
    pair in the order (0, 1), (0, 2), ..., (1, 2), ... is the witness.
    """
    n = len(columns)
    inside = (1 << n) - 1
    for i, c in enumerate(columns):
        if c & ~(inside ^ 1 << i):
            raise VerificationError(f"column {i} has a bit on its diagonal or "
                                    "beyond the matrix", witness=i)
    bits = bit_strings(columns, n)
    transposed = list(map("".join, zip(*bits)))
    if transposed != bits:
        i = next(i for i in range(n) if transposed[i] != bits[i])
        j = next(t for t in range(n) if transposed[i][t] != bits[i][t])
        raise VerificationError("representation matrix is not symmetric", witness=(i, j))
    norms = [c.bit_count() + 16 for c in columns]
    census: dict[int, int] = {}
    for i in range(n - 1):
        ci, gi = columns[i], g.rows[i]
        for j in range(i + 1, n):
            inner = (ci & columns[j]).bit_count() + 8 * (ci >> j & 1)
            d2 = norms[i] + norms[j] - 2 * inner
            if (d2 == 144) != (gi >> j & 1):
                raise VerificationError("distance/adjacency mismatch", witness=(i, j, d2))
            census[d2] = census.get(d2, 0) + 1
    if set(census) != {144, 192}:
        raise VerificationError(f"unexpected squared distances {sorted(census)}")
    return dict(sorted(census.items()))


def build_contrasts(part: Partition) -> tuple[list[int], list[int]]:
    """p: +1 on B2, -1 on B3; q: +2 on B1, -1 on B2 and B3; 0 elsewhere."""
    n = len(part.b1) + len(part.b2) + len(part.b3) + len(part.c)
    p = [0] * n
    q = [0] * n
    for i in part.b1:
        q[i] = 2
    for i in part.b2:
        p[i] = 1
        q[i] = -1
    for i in part.b3:
        p[i] = -1
        q[i] = -1
    return p, q


def block_of(part: Partition, i: int) -> int:
    """The position of i's block in the order B1, B2, B3, C."""
    masks = (part.b1_mask, part.b2_mask, part.b3_mask)
    return next((h for h, m in enumerate(masks) if m >> i & 1), 3)


def inner_products(columns: list[int], v: list[int]) -> list[int]:
    """<v, y_i> for every column i, exactly, for any integer vector v: 4 v_i
    plus, for each nonzero value x of v, x times the number of coordinates
    where v is x and column i has a bit."""
    masks: dict[int, int] = {}
    for t, x in enumerate(v):
        if x:
            masks[x] = masks.get(x, 0) | 1 << t
    return [
        4 * v[i] + sum(x * (c & m).bit_count() for x, m in masks.items())
        for i, c in enumerate(columns)
    ]


def verify_inner_products(
    columns: list[int],
    p: list[int],
    q: list[int],
    part: Partition,
    p_pattern: list[int],
    q_pattern: list[int],
) -> None:
    """<p, y_i> and <q, y_i>, counted for all 416 i, must follow the block
    patterns (values on B1, B2, B3, C); p and q must be orthogonal and each
    sum to zero."""
    for name, vec, pattern in (("p", p, p_pattern), ("q", q, q_pattern)):
        for i, got in enumerate(inner_products(columns, vec)):
            want = pattern[block_of(part, i)]
            if got != want:
                raise VerificationError(
                    f"<{name}, y_{i}> = {got}, expected {want}", witness=i
                )
    p_dot_q = sum(map(mul, p, q))
    if p_dot_q != 0:
        raise VerificationError(f"<p, q> = {p_dot_q}, expected 0")
    if sum(p) != 0 or sum(q) != 0:
        raise VerificationError("contrast vectors must sum to zero")


@dataclass
class CliqueSearchStats:
    edges_scanned: int
    nodes: int


def max_clique(g: Graph) -> tuple[int, list[int], CliqueSearchStats]:
    """Exact clique number with witness, searched from every edge.

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


def max_clique_through_edge(g: Graph, i: int, j: int) -> int:
    """Exact size of the largest clique containing the edge (i, j)."""
    if not g.adjacent(i, j):
        raise ValueError(f"({i},{j}) is not an edge")
    sub, _ = _max_clique_in(g.rows, g.rows[i] & g.rows[j], 0, [0])
    return 2 + sub


def brute_force_omega_through_edge(g: Graph, i: int, j: int) -> int:
    """Largest clique through edge (i, j) by plain enumeration of subsets of
    the common neighbourhood, no pruning tricks."""
    common = [t for t in range(g.n) if g.rows[i] >> t & 1 and g.rows[j] >> t & 1]
    best = 2
    for size in range(1, len(common) + 1):
        if not any(
            all(g.adjacent(a, b) for a in sub for b in sub if a < b)
            for sub in combinations(common, size)
        ):
            break
        best = 2 + size
    return best


def enumerate_special_cliques(
    g: Graph, part: Partition, isosets: list[int]
) -> list[SpecialClique]:
    """All 5-cliques inside C whose five iso-sets share a 3-point core, by a
    backtracking search inside each group of C-internal edges that share
    the same 3-point intersection, ordered by core and vertices."""
    groups: dict[int, set[int]] = {}
    for i in part.c:
        row = g.rows[i] & part.c_mask
        row = row >> (i + 1) << (i + 1)
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            groups.setdefault(isosets[i] & isosets[j], set()).update((i, j))

    found: list[SpecialClique] = []
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
                found.append(SpecialClique(tuple(chosen), tuple(isoset_members(core))))
                return
            for t, v in enumerate(candidates):
                extend(chosen + [v], [u for u in candidates[t + 1 :] if u in linked[v]])

        extend([], verts)

    found.sort(key=lambda c: (c.core, c.vertices))
    return found


def line_points(a: Point, b: Point) -> list[Point]:
    """The 17 points of the line ab: {a} and {la + b : l in GF(16)}."""
    if a == b:
        raise ValueError("two distinct points are needed to span a line")
    pts = {a}
    for lam in range(16):
        pts.add(normalize(tuple(gf16.mul(lam, a[t]) ^ b[t] for t in range(3))))
    if len(pts) != 17:
        raise ConstructionError(f"line through {a}, {b} has {len(pts)} points")
    return sorted(pts)


def isotropic_on_line(plane: Plane, a: Point, b: Point) -> int:
    """Canonical indices of isotropic points on the line ab, bit-packed.

    Requires a, b nonisotropic and orthogonal; such a line is a secant of
    the unital and carries exactly 5 isotropic points.
    """
    if is_isotropic(a) or is_isotropic(b):
        raise ValueError("line endpoints must be nonisotropic")
    if hermitian_form(a, b) != 0:
        raise ValueError("line endpoints must be orthogonal")
    number = iso_number(plane)
    mask = 0
    for p in line_points(a, b):
        idx = number.get(p)
        if idx is not None:
            mask |= 1 << idx
    if mask.bit_count() != 5:
        raise ConstructionError(
            f"secant line {a},{b} carries {mask.bit_count()} isotropic points"
        )
    return mask


def iso_number(plane: Plane) -> dict[Point, int]:
    """The canonical index of each isotropic point: 1..65 in the order of
    `plane.isotropic`."""
    return {p: i + 1 for i, p in enumerate(plane.isotropic)}


def basis_points(plane: Plane, basis: Basis) -> tuple[Point, Point, Point]:
    """The three nonisotropic points of a basis."""
    a, b, c = (plane.nonisotropic[t] for t in basis.noniso_indices)
    return a, b, c


def isoset_from_indices(indices) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= ISOTROPIC_COUNT:
            raise ValueError(f"isotropic index {i} out of range")
        mask |= 1 << i
    return mask
