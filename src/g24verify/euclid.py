"""Euclidean representation y = A + 4I and the certified dimension chain.

y is never stored apart from the graph: its column i is row i of A (A is
symmetric, as the srg stage verified) with 4 at coordinate i, read through
`column_digits`.  Its columns realise the graph as a two-distance point set
(squared distances 144 on edges, 192 on non-edges); those distances and
their counts follow from the verified srg parameters, so no pair is
scanned.  The contrast vectors p and q are constant on the blocks of the
anchored split, so their inner products with the columns of y follow from
the block counts (`graph.CLAIM1`) and the block sizes, and none is
counted.  p and q cut the affine hull twice, giving the chain
65 -> 64 -> 63; each step is
certified two-sided: a modular-rank lower bound meets an upper bound derived
from the exactly verified srg identity plus explicit orthogonal vectors.
Every check below is exact integer arithmetic; there is no floating point
and no array library.

The lower bounds come from nested principal minors.  With the indices
ordered C, B1, B2, B3, one greedy symmetric-pivoting LDL^T of y[order, order]
over GF(p) accepts an index as a pivot when its Schur diagonal is nonzero
mod p.  The pivots P_k among the first k indices make y[P_k, P_k] nonsingular
mod p, so its integer determinant is nonzero and the columns P_k of y are
independent over Q: |P_k| is a lower bound on the rank of the first k
columns for any prime.  The bound is tight over Q because y is positive
semidefinite (eigenvalues 104, 24 and 0 from the verified spectrum): an
index whose rational Schur diagonal vanishes has a vanishing Schur column,
so the greedy pivots reach rank y[S, S] = rank y[:, S] on every prefix S,
unless p divides a pivot.  One prime whose pivots reach the upper bounds
therefore settles the chain; another prime is tried only when one falls
short.

Two choices make the search short without touching that argument, which
holds for any set of pivots found:
- Order inside C.  Any order of C is sound, so C is visited by 13 v mod 419
  rather than by label.  In label order 289 indices of C are visited before
  64 are pivots; in this stride order the first 64 are pivots.
- Stopping.  A prefix is settled once its pivot count reaches its upper
  bound + 1 (its lower bound then equals its upper bound), so the rest of
  its indices are skipped and the scan moves on to the next prefix.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import InconclusiveError
from .graph import CLAIM1, Graph, Partition, Spectrum, SrgParams

DEFAULT_PRIMES = (2**31 - 1, 2**31 - 19)

# The contrast vectors' values on B1, B2, B3 and C: p is +1 on B2 and -1 on
# B3, q is +2 on B1 and -1 on B2 and B3.
P_WEIGHTS = (0, 1, -1, 0)
Q_WEIGHTS = (2, -1, -1, 0)

# C is visited by _C_STRIDE * v mod _STRIDE_MODULUS; the modulus is a prime
# above the 416 labels, so no two labels share a key.
_C_STRIDE = 13
_STRIDE_MODULUS = 419

_DIGIT_VALUES = bytes.maketrans(b"014", b"\x00\x01\x04")


def column_digits(g: Graph, i: int) -> str:
    """Column i of y = A + 4I, one character per coordinate: '4' at i, else
    bit t of row i of A, which is A[t, i] since A is symmetric."""
    bits = format(g.rows[i], f"0{g.n}b")[::-1]
    return f"{bits[:i]}4{bits[i + 1:]}"


# A settled affine dimension: the upper bound `affine_dim`, met by
# `linear_rank` - 1, the pivot count of the prime that settled the chain.
DimensionCertificate = namedtuple(
    "DimensionCertificate", "label size affine_dim linear_rank upper_argument"
)


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


def distance_census(params: SrgParams) -> dict[int, int]:
    """The census of squared distances between the columns of y, derived
    from the verified srg parameters instead of scanned.

    `graph.verify_srg` proved A symmetric and loop-free with degree k, and
    |N(i) & N(j)| = lambda on edges and mu on non-edges.  So
    |y_i|^2 = k + 16 and <y_i, y_j> = |N(i) & N(j)| + 8 A_ij, and
    ||y_i - y_j||^2 = 2 (k + 16) - 2 (|N(i) & N(j)| + 8 A_ij) takes one value
    on the v k / 2 edges and another on the remaining pairs.  For the
    parameters the srg stage pins these are 144 < 192, so the subsets of
    smaller diameter are exactly the cliques.
    """
    v, k = params.v, params.k
    on_edges = 2 * (k + 16) - 2 * (params.lam + 8)
    off_edges = 2 * (k + 16) - 2 * params.mu
    edges = v * k // 2
    return {on_edges: edges, off_edges: v * (v - 1) // 2 - edges}


def contrast_products(part: Partition) -> dict:
    """The inner products of the contrast vectors, derived from the block
    counts (`graph.verify_claim1`) and the block sizes instead of counted.

    For w constant on each block, with weight w_X on block X and 0 on C (so
    neighbours in C add nothing), and i in block X,
    <w, y_i> = 4 w_X + sum over h of w_Bh |N(i) & B_h|, and CLAIM1 gives
    |N(i) & B_h| for every i of X.  Hence the patterns of
    <p, y_i> and <q, y_i> on B1, B2, B3, C, and <p, q>, |p|^2, |q|^2 as sums
    of block size times weight products.
    """
    sizes = (len(part.b1), len(part.b2), len(part.b3), len(part.c))

    def pattern(w):
        return [4 * w[x] + sum(map(mul, w, CLAIM1[b])) for x, b in enumerate(CLAIM1)]

    def dot(u, w):
        return sum(n * a * b for n, a, b in zip(sizes, u, w))

    return {
        "p_pattern": pattern(P_WEIGHTS),
        "q_pattern": pattern(Q_WEIGHTS),
        "p_dot_q": dot(P_WEIGHTS, Q_WEIGHTS),
        "p_norm_sq": dot(P_WEIGHTS, P_WEIGHTS),
        "q_norm_sq": dot(Q_WEIGHTS, Q_WEIGHTS),
    }


def _check_prime(prime: int) -> None:
    """The primes admitted, here and by `--primes`: odd and below 2**31."""
    if not 2 < prime < 2**31:
        raise ValueError(f"prime {prime} outside (2, 2^31)")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")


def principal_prefix_ranks(
    matrix,
    prime: int,
    prefixes: tuple[int, ...],
    order=None,
    caps: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Lower bounds on the rank of the columns `order[:k]` of a square
    integer matrix, for each k in `prefixes`, from one greedy LDL^T over
    GF(prime).  `matrix` is a sequence of rows; `order` defaults to all
    indices in turn.

    Indices are visited in order; one becomes a pivot when its Schur
    diagonal (with respect to the pivots before it) is nonzero mod prime.
    The pivots P_k among the first k indices give a principal minor
    det M[P_k, P_k] that is nonzero mod prime, hence nonzero over Z, so the
    columns P_k are independent over Q and |P_k| is returned for k.  For a
    positive semidefinite matrix the bound equals the rational rank unless
    the prime divides a pivot.  The argument needs `matrix` square and
    symmetric, as y = A + 4I is once the srg stage has verified A.

    With `caps`, prefix k stops being scanned once the pivots found number
    caps[k's position]; its remaining indices are skipped.  The pivots found
    are still independent, so the result stays a lower bound.

    Left-looking: a visited index solves against the stored pivots only,
    O(r^2) work per index for r pivots; nothing is kept for non-pivots.
    """
    _check_prime(prime)
    n = len(matrix)
    if order is None:
        order = range(n)
    if caps is None:
        caps = (n,) * len(prefixes)
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


def _nested_order(part: Partition) -> list[int]:
    """C in stride order, then B1, B2, B3: the prefixes 320, 352 and 416 are
    C, C+B1 and V."""
    c = sorted(part.c, key=lambda v: _C_STRIDE * v % _STRIDE_MODULUS)
    return c + list(part.b1 + part.b2 + part.b3)


def certified_dimension_chain(
    g: Graph,
    part: Partition,
    spectrum: Spectrum,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
) -> tuple[int, list[DimensionCertificate]]:
    """Certificates for the affine dimensions of V, C+B1, and C, and the
    prime that settled them.

    Upper bounds: rank(y) = 1 + f from the verified srg identity, minus one
    hyperplane cut per orthogonal vector (the all-ones direction, then p,
    then q), each cut shown proper by an explicit nonzero inner product.
    Lower bounds: every column lies on the hyperplane <1, y_i> = 104 off the
    origin, so affine dimension = linear rank - 1.  The linear ranks of the
    three nested sets are read at the prefixes 320, 352 and 416 of one
    principal-pivot LDL^T over y[order, order], order = C, B1, B2, B3, each
    prefix stopped once it reaches its upper bound + 1 (see the module
    docstring).

    One prime settles the chain: a principal minor that is nonzero mod p is
    nonzero over Z, so the pivots found for any single prime are columns
    independent over Q.  The primes are tried in the order given, and the
    first whose pivots reach every upper bound + 1 is returned with the
    certificates.  InconclusiveError, naming each prime and its pivot
    counts, when every prime falls short (or none is given, which
    `--primes` refuses).

    It relies on what earlier stages of the same run proved and does not
    check it again: the srg stage (A is the loop-free srg(416, 100, 36, 20),
    which gives f = 65, rank y = 1 + f, and k + 4 = 104 as every column sum
    of y) and the block-counts stage (the 20/0/8 counts, from which
    <p, y_i> and <q, y_i> follow their block patterns and <p, q> = 0; see
    `contrast_products`).
    """
    rank_y = 1 + spectrum.f  # eigenvalues 104, 24, 0 of y; 0 has multiplicity g
    base_arg = [
        f"srg identity verified, so y = A + 4I has rank 1 + f = {rank_y}",
        "every column satisfies <1, y_i> = 104, a hyperplane off the origin",
    ]
    sets = [
        ("V", g.n, rank_y - 1, base_arg),
        (
            "C+B1",
            len(part.c) + len(part.b1),
            rank_y - 2,
            base_arg
            + [
                "p is orthogonal to every column of the set",
                "<p, y_j> = 24 on B2, so the cut by p is proper",
            ],
        ),
        (
            "C",
            len(part.c),
            rank_y - 3,
            base_arg
            + [
                "p and q are orthogonal to every column of the set",
                "<p, y_j> = 24 on B2 and <q, y_j> = 48 on B1, so both cuts are proper",
                "<p, q> = 0, so the two cuts are independent",
            ],
        ),
    ]

    columns = [
        column_digits(g, i).encode().translate(_DIGIT_VALUES) for i in range(g.n)
    ]
    order = _nested_order(part)
    prefixes = tuple(size for _, size, _, _ in sets)
    caps = tuple(upper + 1 for _, _, upper, _ in sets)
    shortfalls = []
    for prime in primes:
        ranks = principal_prefix_ranks(columns, prime, prefixes, order, caps)
        if ranks == caps:
            return prime, [
                DimensionCertificate(label, size, upper, rank, list(argument))
                for (label, size, upper, argument), rank in zip(sets, ranks)
            ]
        shortfalls.append(f"{prime} gives {list(ranks)}")
    raise InconclusiveError(
        f"modular pivots on {', '.join(label for label, *_ in sets)} fall short "
        f"of the upper bounds + 1 {list(caps)} for every prime: "
        f"{'; '.join(shortfalls)}; try other primes"
    )
