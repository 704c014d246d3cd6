"""Reference implementations the tests compare the program against.

They are the direct, exhaustive forms of checks the program settles by a
shorter argument: the graph and its intersection census from all 86,320
pairs of iso-sets, the bases from a pairwise scan of the Hermitian form,
the isometries' maps of the bases from their nonisotropic points, the srg
identity on all 86,320 pairs, the srg spectrum and distance census
recomputed from any parameters, claim 1 split and counted at every anchor,
the distance census by scanning every pair, the contrast products counted
column by column, ranks by exact rational and by modular elimination,
the dimension chain by the paper's own route (arXiv 1308.0206) of modular
ranks, the clique number by a search from every edge, the special cliques
by a search inside each core's group of edges, the isomorphism of each B_h
with its model by a backtracking search, the orbits of a group from its
generators, and the geometry of lines spelled out point by point.

y = A + 4I is passed to them as its list of column ints: bit t of
columns[i] is y[t, i] off the diagonal, and the diagonal is 4.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from g24verify import VerificationError
from g24verify.graph import (
    Partition,
    SpecialClique,
    column_digits,
    edge_count,
    edges,
    point_columns,
    split_B_C,
    verify_claim1,
)
from g24verify.hermitian import (
    ISOMETRIES,
    ISOSET_SIZE,
    ISOTROPIC_COUNT,
    _MUL,
    Basis,
    Plane,
    Point,
    _apply,
    hermitian_form,
    is_isotropic,
    members,
    normalize,
)


def vertices(mask: int) -> list[int]:
    """The vertices of a vertex mask, ascending."""
    return list(members(mask))


def stage(report, name: str):
    """The stage of a run's report named `name` (a KeyError if none ran)."""
    return {s.name: s for s in report.stages}[name]


def bit_strings(rows: list[int], n: int) -> list[str]:
    """Each bit-packed row as n characters '0'/'1', character j being bit j,
    so that rows can be compared and transposed as strings."""
    return [format(r, f"0{n}b")[::-1] for r in rows]


def orbit(maps: list[list[int]], v: int) -> set[int]:
    """The orbit of v under the group the permutations `maps` generate: the
    closure of {v} under their images."""
    seen, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for perm in maps:
            if perm[u] not in seen:
                seen.add(perm[u])
                frontier.append(perm[u])
    return seen


# The census of |iso-set_i & iso-set_j| over the 86,320 pairs of bases.
INTERSECTION_SIZES = {2: 31200, 3: 20800, 5: 34320}


def build_graph(isosets: list[int]) -> tuple[list[int], dict[int, int]]:
    """The rows of the graph, edge (i, j) iff the iso-sets of i and j share
    exactly 3 points, and the census of the intersection sizes, from one
    popcount per pair."""
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
    return rows, {c: m for c, m in enumerate(census) if m}


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
    _, iso, noniso = plane
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
                raise VerificationError(f"orthogonal pair ({i},{j}) has "
                                        f"{len(completions)} completions")
            triples.add(tuple(sorted((i, j, completions[0]))))
    polar = []
    for t in noniso:
        mask = 0
        for idx, p in enumerate(iso, start=1):
            if hermitian_form(p, t) == 0:
                mask |= 1 << idx
        if mask.bit_count() != 5:
            raise VerificationError(f"polar line of {t} carries "
                                    f"{mask.bit_count()} isotropic points")
        polar.append(mask)
    bases = []
    for tri in sorted(triples):
        f_bc, f_ac, f_ab = (polar[t] for t in tri)
        if f_ab & f_ac or f_ab & f_bc or f_ac & f_bc:
            raise VerificationError(f"triangle sides of {tri} share isotropic points")
        isoset = f_ab | f_ac | f_bc
        if isoset.bit_count() != ISOSET_SIZE:
            raise VerificationError(f"iso-set of {tri} has {isoset.bit_count()} members")
        bases.append((tri, isoset))
    if len(bases) != 416 or len({isoset for _, isoset in bases}) != 416:
        raise VerificationError(f"{len(bases)} bases, not 416 distinct")
    return bases, polar


def basis_permutations(plane: Plane, bases: list[Basis]) -> list[list[int]]:
    """The permutation of the bases induced by each of ISOMETRIES: each
    nonisotropic point is moved, and a basis goes to the basis whose index
    triple holds the images of its three points."""
    noniso = plane[2]
    noniso_index = {p: i for i, p in enumerate(noniso)}
    basis_index = {tri: k for k, (tri, _) in enumerate(bases)}
    perms = []
    for m in ISOMETRIES:
        image = [noniso_index[normalize(_apply(m, p))] for p in noniso]
        triples = [tuple(sorted(image[t] for t in tri)) for tri, _ in bases]
        perms.append([basis_index[t] for t in triples])
    return perms


def claim1_at_every_anchor(rows: list[int], isosets: list[int]) -> list[Partition]:
    """The anchored split and its 20/0/8 counts, checked directly at each of
    the 65 anchors; the split at anchor a is item a - 1."""
    columns = point_columns(isosets)
    parts = []
    for anchor in range(1, ISOTROPIC_COUNT + 1):
        part = split_B_C(rows, columns[anchor])
        verify_claim1(rows, part)
        parts.append(part)
    return parts


def halved_5cube() -> list[int]:
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
    return rows


def coclique_extension(rows: list[int], size: int = 2) -> list[int]:
    """Blow each vertex up into a coclique of `size`; copies inherit edges.
    Copy a of vertex i is vertex i * size + a."""
    n = len(rows)
    out = [0] * (n * size)
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                for a in range(size):
                    for b in range(size):
                        out[i * size + a] |= 1 << (j * size + b)
    return out


def induced(rows: list[int], mask: int) -> list[int]:
    """The subgraph on the vertices of `mask`, vertex t standing for its
    t-th vertex."""
    verts = vertices(mask)
    pos = {v: t for t, v in enumerate(verts)}
    out = [0] * len(verts)
    for t, v in enumerate(verts):
        for u in members(rows[v] & mask):
            out[t] |= 1 << pos[u]
    return out


def find_isomorphism(ga: list[int], gb: list[int]) -> list[int] | None:
    """Backtracking isomorphism search between two graphs given by their
    rows; returns image of each ga vertex."""
    if len(ga) != len(gb):
        return None
    n = len(ga)
    if sorted(r.bit_count() for r in ga) != sorted(r.bit_count() for r in gb):
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
            links = (ga[v] & placed).bit_count()
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
            if ga[v] >> u & 1:
                cand &= gb[image[u]]
            else:
                cand &= ~gb[image[u]]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            image[v] = w
            if extend(depth + 1, used | 1 << w):
                return True
        image[v] = -1
        return False

    return image if extend(0, 0) else None


def verify_srg_all_pairs(rows: list[int]) -> tuple[int, int, int, int]:
    """The srg identity A^2 = k I + lambda A + mu (J - I - A) with no
    symmetry assumed: no loops and constant degree, then every pair i < j
    for symmetry and its common-neighbour count, lambda and mu read off
    vertex 0.  Returns (v, k, lam, mu)."""
    n = len(rows)
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
    return n, k, lam, mu


def srg_spectrum(params: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Eigenvalues r > s and their multiplicities f and g, as (r, f, s, g),
    in integer arithmetic.

    Needs the discriminant (lam-mu)^2 + 4(k-mu) to be a perfect square and
    f to be integral, as for SRG (discriminant 576, f = 65).  r and s are
    then integers: the discriminant is (lam-mu)^2 mod 4, so its root has the
    parity of lam - mu.  f solves k + f r + g s = 0 with g = v - 1 - f, so
    the spectrum has trace 0.
    """
    v, k, lam, mu = params
    root = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    # f = ((v - 1) - (2k + (v - 1)(lam - mu)) / root) / 2
    f = (v - 1 - (2 * k + (v - 1) * (lam - mu)) // root) // 2
    return r, f, s, v - 1 - f


def srg_distance_census(params: tuple[int, int, int, int]) -> dict[int, int]:
    """The squared distances between the columns of y = A + 4I and their
    counts, for any srg parameters: ||y_i - y_j||^2 is
    2 (k + 16) - 2 (lam + 8) on the v k / 2 edges and 2 (k + 16) - 2 mu on
    the other pairs."""
    v, k, lam, mu = params
    on_edges = 2 * (k + 16) - 2 * (lam + 8)
    off_edges = 2 * (k + 16) - 2 * mu
    edges = v * k // 2
    return {on_edges: edges, off_edges: v * (v - 1) // 2 - edges}


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


def distance_census(columns: list[int], rows: list[int]) -> dict[int, int]:
    """Every squared pair distance of y, scanned, and checked against the
    adjacency `rows`: 144 exactly on edges, 192 exactly on non-edges.

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
        ci, gi = columns[i], rows[i]
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
    n = sum(mask.bit_count() for mask in part)
    p = [0] * n
    q = [0] * n
    for i in members(part.b1):
        q[i] = 2
    for i in members(part.b2):
        p[i] = 1
        q[i] = -1
    for i in members(part.b3):
        p[i] = -1
        q[i] = -1
    return p, q


def block_of(part: Partition, i: int) -> int:
    """The position of i's block in the order B1, B2, B3, C."""
    return next((h for h, m in enumerate(part) if m >> i & 1), 3)


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


# Two primes below 2**31 for the modular ranks.
PRIMES = (2**31 - 1, 2**31 - 19)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**31 range used."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(prime: int) -> None:
    """The primes the modular oracles admit: odd and below 2**31."""
    if not 2 < prime < 2**31:
        raise ValueError(f"prime {prime} outside (2, 2^31)")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")


def rational_rank(rows) -> int:
    """Oracle: Gaussian elimination over exact rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    m, n = len(mat), len(mat[0])
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, m) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def rank_mod_prime(
    rows, prime: int, prefixes: tuple[int, ...] | None = None
) -> int | tuple[int, ...]:
    """Reference: rank over GF(prime) by Gaussian elimination with modular
    inverses, on int64 arrays.

    Pivoting is deterministic: columns in order, first nonzero row below the
    pivot row.  A column gets a pivot exactly when it is independent of the
    columns before it, so the pivots among the first k columns number the
    rank of those k columns.  With `prefixes`, returns that rank for each k
    in it, all from one elimination; otherwise the rank of the whole matrix.
    Primes below 2**31 keep every product of two residues within int64.
    numpy, a test dependency only, is imported here alone.
    """
    import numpy as np

    check_prime(prime)
    a = np.array(rows, dtype=np.int64) % prime
    if a.ndim != 2:
        raise ValueError("rank_mod_prime expects a 2-d matrix")
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # Columns left of c are already zero in rows r and below.
        inv = pow(int(a[r, c]), -1, prime)
        a[r, c:] = a[r, c:] * inv % prime
        below = a[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            idx = r + 1 + nzb
            a[idx, c:] = (a[idx, c:] - below[nzb, None] * a[r, c:]) % prime
        pivots.append(c)
        r += 1
        if r == m:
            break
    if prefixes is None:
        return r
    return tuple(sum(1 for c in pivots if c < k) for k in prefixes)


def principal_prefix_ranks(
    matrix,
    prime: int,
    prefixes: tuple[int, ...],
    order=None,
    caps: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Lower bounds on the rank of the columns `order[:k]` of a square
    integer matrix, for each k in `prefixes`, from one greedy LDL^T over
    GF(prime).  `matrix` is a sequence of rows; `order` defaults to all its
    indices in turn.

    Indices are visited in order; one becomes a pivot when its Schur
    diagonal (with respect to the pivots before it) is nonzero mod prime.
    The pivots P_k among the first k indices give a principal minor
    det M[P_k, P_k] that is nonzero mod prime, hence nonzero over Z, so the
    columns P_k are independent over Q and |P_k| is returned for k.  For a
    positive semidefinite matrix the bound equals the rational rank unless
    the prime divides a pivot.

    With `caps`, prefix k stops being scanned once the pivots found number
    caps[k's position]; its remaining indices are skipped.  The pivots found
    are still independent, so the result stays a lower bound.
    """
    check_prime(prime)
    if order is None:
        order = range(len(matrix))
    if caps is None:
        caps = (len(order),) * len(prefixes)
    pivots: list[int] = []
    positions: list[int] = []  # of the pivots, in `order`
    schur_rows: list[list[int]] = []  # pivot t: L[p_t, s] D_s for s < t
    inverses: list[int] = []  # pivot t: 1 / D_t
    pos = 0
    for k, cap in sorted(zip(prefixes, caps)):
        while pos < k and len(pivots) < cap:
            j = order[pos]
            row = matrix[j]
            schur: list[int] = []  # L[j, t] D_t
            lower: list[int] = []  # L[j, t]
            for t, p in enumerate(pivots):
                u = (row[p] - sum(map(mul, lower, schur_rows[t]))) % prime
                schur.append(u)
                lower.append(u * inverses[t] % prime)
            d = (row[j] - sum(map(mul, lower, schur))) % prime
            if d:
                pivots.append(j)
                positions.append(pos)
                schur_rows.append(schur)
                inverses.append(pow(d, -1, prime))
            pos += 1
        pos = max(pos, k)
    return tuple(sum(1 for q in positions if q < k) for k in prefixes)


def nested_order(part: Partition) -> list[int]:
    """C, then B1, B2, B3, so that the prefixes 320, 352 and 416 are C, C+B1
    and V.  C is visited by 13 v mod 419, a prime above the labels: in label
    order 289 indices of C come before its 64th pivot, in this order the
    first 64 are pivots."""
    c = sorted(members(part.c), key=lambda v: 13 * v % 419)
    return c + [v for mask in (part.b1, part.b2, part.b3) for v in members(mask)]


# Column digits '0', '1', '4' of y as the byte values 0, 1, 4.
_DIGITS = bytes.maketrans(b"014", b"\x00\x01\x04")


def modular_dimension_chain(
    rows: list[int], part: Partition, prime: int
) -> tuple[int, ...]:
    """Lower bounds on the linear ranks of the columns C, C+B1 and V of
    y = A + 4I, by the route of arXiv 1308.0206: one LDL^T of y over GF(prime) in
    `nested_order`, each prefix stopped at its rank 64, 65 or 66.  y is
    positive semidefinite, so a prime that divides no pivot reaches them."""
    y = [
        column_digits(rows, i).encode().translate(_DIGITS)
        for i in range(len(rows))
    ]
    order = nested_order(part)
    return principal_prefix_ranks(y, prime, (320, 352, 416), order, (64, 65, 66))


def max_clique_in(
    rows: list[int], cand: int, best_floor: int, counter: list[int]
) -> tuple[int, list[int]]:
    """Exact maximum clique inside the induced subgraph on `cand`.

    `best_floor` prunes branches that cannot beat the caller's incumbent;
    the returned size is exact whenever it exceeds the floor.

    Each node builds colour class c, a bit mask as in the BBMC algorithm of
    San Segundo et al. (2011), as the greedy independent set of the vertices
    left (take the lowest, drop it and its neighbours, repeat), which on a
    symmetric graph is first-fit colouring in ascending order.
    Its vertices get bound c; classes are visited last first, each from its
    highest vertex, so the first bound that cannot win ends the node.
    """
    best_size = best_floor
    best_wit: list[int] = []
    stack: list[int] = []

    def expand(cand_mask: int) -> None:
        nonlocal best_size, best_wit
        counter[0] += 1
        classes = []
        left = cand_mask
        while left:
            members = 0
            free = left
            while free:
                low = free & -free
                members |= low
                free &= ~(low | rows[low.bit_length() - 1])
            classes.append(members)
            left ^= members
        for bound in range(len(classes), 0, -1):
            members = classes[bound - 1]
            while members:
                if len(stack) + bound <= best_size:
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                stack.append(v)
                nxt = cand_mask & rows[v]
                if nxt:
                    expand(nxt)
                elif len(stack) > best_size:
                    best_size = len(stack)
                    best_wit = list(stack)
                stack.pop()
                cand_mask ^= 1 << v

    expand(cand)
    return best_size, best_wit


def verify_clique(rows: list[int], clique: list[int]) -> None:
    """Independent pass re-testing every pair of the witness."""
    for a, u in enumerate(clique):
        for v in clique[a + 1 :]:
            if not rows[u] >> v & 1:
                raise VerificationError(
                    f"witness pair ({u},{v}) is not an edge", witness=(u, v)
                )


CliqueSearchStats = namedtuple("CliqueSearchStats", "edges_scanned nodes")


def max_clique(rows: list[int]) -> tuple[int, list[int], CliqueSearchStats]:
    """Exact clique number with witness, searched from every edge.

    For each edge (i, j), i < j, candidates are the common neighbours above
    j, so every clique is rooted at its two smallest vertices exactly once.
    """
    if edge_count(rows) == 0:
        witness = [0] if rows else []
        return len(witness), witness, CliqueSearchStats(0, 0)
    best = 2
    witness = []
    counter = [0]
    scanned = 0
    for i, j in edges(rows):
        scanned += 1
        if not witness:
            witness = [i, j]
        above_j = rows[j] >> (j + 1) << (j + 1)
        cand = rows[i] & above_j
        if 2 + cand.bit_count() <= best:
            continue
        sub_size, sub_wit = max_clique_in(rows, cand, best - 2, counter)
        if 2 + sub_size > best:
            best = 2 + sub_size
            witness = sorted([i, j] + sub_wit)
    verify_clique(rows, witness)
    return best, witness, CliqueSearchStats(scanned, counter[0])


def enumerate_special_cliques(
    rows: list[int], part: Partition, isosets: list[int]
) -> list[SpecialClique]:
    """All 5-cliques inside C whose five iso-sets share a 3-point core, by a
    backtracking search inside each group of C-internal edges that share
    the same 3-point intersection, ordered by core and vertices."""
    groups: dict[int, set[int]] = {}
    for i in members(part.c):
        row = rows[i] & part.c
        row = row >> (i + 1) << (i + 1)
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            groups.setdefault(isosets[i] & isosets[j], set()).update((i, j))

    found: list[SpecialClique] = []
    for core, group in sorted(groups.items()):
        if len(group) < 5:
            continue
        verts = sorted(group)
        linked = {
            v: {
                u
                for u in verts
                if u != v and rows[u] >> v & 1 and isosets[u] & isosets[v] == core
            }
            for v in verts
        }

        def extend(chosen: list[int], candidates: list[int]) -> None:
            if len(chosen) == 5:
                found.append((tuple(chosen), tuple(members(core))))
                return
            for t, v in enumerate(candidates):
                extend(chosen + [v], [u for u in candidates[t + 1 :] if u in linked[v]])

        extend([], verts)

    found.sort(key=lambda c: (c[1], c[0]))  # by core, then vertices
    return found


def line_points(a: Point, b: Point) -> list[Point]:
    """The 17 points of the line ab: {a} and {la + b : l in GF(16)}."""
    if a == b:
        raise ValueError("two distinct points are needed to span a line")
    pts = {a}
    for lam in range(16):
        pts.add(normalize(tuple(_MUL[lam][a[t]] ^ b[t] for t in range(3))))
    if len(pts) != 17:
        raise VerificationError(f"line through {a}, {b} has {len(pts)} points")
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
        raise VerificationError(
            f"secant line {a},{b} carries {mask.bit_count()} isotropic points"
        )
    return mask


def iso_number(plane: Plane) -> dict[Point, int]:
    """The canonical index of each isotropic point: 1..65 in the order of
    the plane's isotropic points."""
    return {p: i + 1 for i, p in enumerate(plane[1])}


def basis_points(plane: Plane, basis: Basis) -> tuple[Point, Point, Point]:
    """The three nonisotropic points of a basis."""
    a, b, c = (plane[2][t] for t in basis[0])
    return a, b, c


def isoset_from_indices(indices) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= ISOTROPIC_COUNT:
            raise ValueError(f"isotropic index {i} out of range")
        mask |= 1 << i
    return mask
