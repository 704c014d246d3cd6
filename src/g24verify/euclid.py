"""Euclidean representation y = A + 4I and the certified dimension chain.

Columns of y realise the graph as a two-distance point set (squared
distances 144 on edges, 192 on non-edges).  Once y's columns are checked to
be the graph's rows, those distances and their counts follow from the
verified srg parameters, so no pair is scanned.  The contrast vectors p and q
cut the affine hull twice, giving the chain 65 -> 64 -> 63; each step is
certified two-sided: a modular-rank lower bound meets an upper bound derived
from the exactly verified srg identity plus explicit orthogonal vectors.

y is kept as the graph's bits: one Python int per column holds the entries
off the diagonal, which are therefore 0 or 1, and the diagonal is the
constant 4.  Every check below is exact integer arithmetic on those ints
(AND, popcount, comparison of the ints); there is no floating point and no
array library.

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

from dataclasses import dataclass, field
from operator import mul

from .errors import InconclusiveError, VerificationError
from .graph import Graph, Partition, Spectrum, SrgParams

DEFAULT_PRIMES = (2**31 - 1, 2**31 - 19)

# Inner products <p, y_i> and <q, y_i> by block B1/B2/B3/C.
P_PATTERN = {"B1": 0, "B2": 24, "B3": -24, "C": 0}
Q_PATTERN = {"B1": 48, "B2": -24, "B3": -24, "C": 0}

# C is visited by _C_STRIDE * v mod _STRIDE_MODULUS; the modulus is a prime
# above the 416 labels, so no two labels share a key.
_C_STRIDE = 13
_STRIDE_MODULUS = 419

_DIGIT_VALUES = bytes.maketrans(b"014", b"\x00\x01\x04")


@dataclass
class ReprMatrix:
    """y = A + 4I, one bit-packed int per column.

    y[i, i] = 4, and off the diagonal y[t, i] is bit t of columns[i].  The
    kernels below count bits, so bit i of columns[i] must be clear;
    `verify_representation` refuses y unless its columns are the rows of a
    graph verified loop-free.
    """

    n: int
    columns: list[int]

    def column_digits(self, i: int) -> str:
        """Column i as one character per coordinate: '4' at i, else the bit."""
        bits = format(self.columns[i], f"0{self.n}b")[::-1]
        return f"{bits[:i]}4{bits[i + 1:]}"

    def column(self, i: int) -> bytes:
        """Column i, one byte per coordinate."""
        return self.column_digits(i).encode().translate(_DIGIT_VALUES)


@dataclass
class DimensionCertificate:
    """A settled affine dimension: the upper bound `affine_dim`, met by
    `linear_rank` - 1, the pivot count of the prime that settled the chain."""

    label: str
    size: int
    affine_dim: int
    linear_rank: int
    upper_argument: list[str] = field(default_factory=list)


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


def build_representation(g: Graph) -> ReprMatrix:
    """y = A + 4I.  A is symmetric, so the graph's rows are y's columns off
    the diagonal; they are copied, so y can change apart from g."""
    return ReprMatrix(g.n, list(g.rows))


def verify_representation(y: ReprMatrix, g: Graph, params: SrgParams) -> dict[int, int]:
    """The census of squared distances between the columns of y, derived
    from the verified srg parameters of g instead of scanned.

    y must be A + 4I: its columns must be the rows of A, compared once; a
    failure names the first column that differs and its lowest differing
    entry.  `graph.verify_srg` proved A symmetric and loop-free with degree
    k, and |N(i) & N(j)| = lambda on edges and mu on non-edges.  So
    |y_i|^2 = k + 16 and <y_i, y_j> = |N(i) & N(j)| + 8 A_ij, and
    ||y_i - y_j||^2 = 2 (k + 16) - 2 (|N(i) & N(j)| + 8 A_ij) takes one value
    on the v k / 2 edges and another on the remaining pairs.  The value on
    edges must be the smaller, so that the subsets of smaller diameter are
    exactly the cliques.
    """
    if y.columns != g.rows:
        i = next(i for i, (c, r) in enumerate(zip(y.columns, g.rows)) if c != r)
        diff = y.columns[i] ^ g.rows[i]
        j = (diff & -diff).bit_length() - 1
        raise VerificationError(
            f"column {i} of y differs from A + 4I at entry ({j}, {i})",
            witness=(i, j),
        )
    v, k = params.v, params.k
    on_edges = 2 * (k + 16) - 2 * (params.lam + 8)
    off_edges = 2 * (k + 16) - 2 * params.mu
    if on_edges >= off_edges:
        raise VerificationError(
            f"squared distance {on_edges} on edges is not below {off_edges} off them"
        )
    edges = v * k // 2
    return {on_edges: edges, off_edges: v * (v - 1) // 2 - edges}


def build_contrasts(part: Partition) -> tuple[list[int], list[int]]:
    """p: +1 on B2, -1 on B3; q: +2 on B1, -1 on B2 and B3; 0 elsewhere."""
    n = max(max(part.b1), max(part.b2), max(part.b3), max(part.c)) + 1
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


def _inner_products(y: ReprMatrix, v: list[int]) -> list[int]:
    """<v, y_i> for every column i, exactly, for any integer vector v: 4 v_i
    plus, for each nonzero value x of v, x times the number of coordinates
    where v is x and column i has a bit."""
    masks: dict[int, int] = {}
    for t, x in enumerate(v):
        if x:
            masks[x] = masks.get(x, 0) | 1 << t
    return [
        4 * v[i] + sum(x * (c & m).bit_count() for x, m in masks.items())
        for i, c in enumerate(y.columns)
    ]


def verify_inner_products(
    y: ReprMatrix, p: list[int], q: list[int], part: Partition
) -> None:
    """<p, y_i> and <q, y_i> must follow the block patterns for all 416 i."""
    p_dots = _inner_products(y, p)
    q_dots = _inner_products(y, q)
    for i in range(y.n):
        block = part.block_of(i)
        if p_dots[i] != P_PATTERN[block]:
            raise VerificationError(
                f"<p, y_{i}> = {p_dots[i]}, expected {P_PATTERN[block]} on {block}",
                witness=i,
            )
        if q_dots[i] != Q_PATTERN[block]:
            raise VerificationError(
                f"<q, y_{i}> = {q_dots[i]}, expected {Q_PATTERN[block]} on {block}",
                witness=i,
            )
    p_dot_q = sum(map(mul, p, q))
    if p_dot_q != 0:
        raise VerificationError(f"<p, q> = {p_dot_q}, expected 0")
    if sum(p) != 0 or sum(q) != 0:
        raise VerificationError("contrast vectors must sum to zero")


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
    the prime divides a pivot.  The argument needs M[P_k, P_k] symmetric,
    which is checked entry by entry as pivots are accepted (ValueError
    naming the entry); entries outside it are never read.

    With `caps`, prefix k stops being scanned once the pivots found number
    caps[k's position]; its remaining indices are skipped.  The pivots found
    are still independent, so the result stays a lower bound.

    Left-looking: a visited index solves against the stored pivots only,
    O(r^2) work per index for r pivots; nothing is kept for non-pivots.
    """
    _check_prime(prime)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("principal_prefix_ranks expects a square matrix")
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
                for p in pivots:
                    if matrix[p][j] != row[p]:
                        raise ValueError(
                            f"matrix is not symmetric: entry ({p}, {j}) != ({j}, {p})"
                        )
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
    y: ReprMatrix,
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
    counts, when every prime falls short.

    It relies on what earlier stages of the same run proved and does not
    check it again: the srg stage (A is an srg, which gives the spectrum and
    rank y = 1 + f), the representation stage (y = A + 4I, so every column
    sums to k + 4 = 104) and the inner-products stage (<p, y_i> and
    <q, y_i> follow their block patterns, and <p, q> = 0).
    """
    if not primes:
        raise ValueError("at least one prime is required")
    if spectrum.f != 65 or spectrum.s != -4:
        raise VerificationError(f"unexpected spectrum {spectrum}")

    rank_y = 1 + spectrum.f  # eigenvalues 104, 24, 0 of y; 0 has multiplicity g
    base_arg = [
        f"srg identity verified, so y = A + 4I has rank 1 + f = {rank_y}",
        "every column satisfies <1, y_i> = 104, a hyperplane off the origin",
    ]
    sets = [
        ("V", y.n, rank_y - 1, base_arg),
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

    columns = [y.column(i) for i in range(y.n)]
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
