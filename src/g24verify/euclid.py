"""Euclidean representation y = A + 4I and the certified dimension chain.

Columns of y realise the graph as a two-distance point set (squared
distances 144 on edges, 192 on non-edges).  The contrast vectors p and q
cut the affine hull twice, giving the chain 65 -> 64 -> 63; each step is
certified two-sided: a modular-rank lower bound meets an upper bound derived
from the exactly verified srg identity plus explicit orthogonal vectors.

The lower bounds come from nested principal minors.  With the indices
ordered C, B1, B2, B3, one greedy symmetric-pivoting LDL^T of y[order, order]
over GF(p) accepts an index as a pivot when its Schur diagonal is nonzero
mod p.  The pivots P_k among the first k indices make y[P_k, P_k] nonsingular
mod p, so its integer determinant is nonzero and the columns P_k of y are
independent over Q: |P_k| is a lower bound on the rank of the first k
columns for any prime.  The bound is tight over Q because y is positive
semidefinite (eigenvalues 104, 24 and 0 from the verified spectrum): an
index whose rational Schur diagonal vanishes has a vanishing Schur column,
so the greedy pivots reach rank y[S, S] = rank y[:, S] on every prefix S.
No floating point anywhere; numpy is used purely as an integer array engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# All arithmetic here is integer (int64, int16), which never reaches BLAS, yet
# OpenBLAS starts one thread per core when numpy loads: about 50 ms per
# process on 2 vCPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from .errors import InconclusiveError, VerificationError  # noqa: E402
from .graph import Graph, Partition, Spectrum  # noqa: E402
from .primes import DEFAULT_PRIMES, is_prime  # noqa: E402

# Inner products <p, y_i> and <q, y_i> by block B1/B2/B3/C.
P_PATTERN = {"B1": 0, "B2": 24, "B3": -24, "C": 0}
Q_PATTERN = {"B1": 48, "B2": -24, "B3": -24, "C": 0}


@dataclass
class ReprMatrix:
    """416x416 integer matrix with 4 on the diagonal and 1 on edges."""

    n: int
    entries: np.ndarray  # int64, symmetric

    def entry(self, i: int, j: int) -> int:
        return int(self.entries[i, j])

    def column(self, i: int) -> list[int]:
        return [int(v) for v in self.entries[:, i]]

    def column_sum(self, i: int) -> int:
        return int(self.entries[:, i].sum())


@dataclass
class DimensionCertificate:
    label: str
    size: int
    affine_dim: int
    upper_bound: int
    lower_bounds: dict[int, int]
    linear_ranks: dict[int, int]
    upper_argument: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return max(self.lower_bounds.values()) == self.upper_bound == self.affine_dim


def _adjacency_bits(g: Graph) -> np.ndarray:
    """The n x n 0/1 adjacency matrix (uint8), unpacked from the rows."""
    nbytes = (g.n + 7) // 8
    packed = b"".join(r.to_bytes(nbytes, "little") for r in g.rows)
    raw = np.frombuffer(packed, dtype=np.uint8)
    return np.unpackbits(raw.reshape(g.n, nbytes), axis=1, bitorder="little")[:, : g.n]


def build_representation(g: Graph) -> ReprMatrix:
    """y = A + 4I, materialised exactly from the bit-packed rows."""
    entries = _adjacency_bits(g).astype(np.int64) + 4 * np.eye(g.n, dtype=np.int64)
    return ReprMatrix(g.n, entries)


def pair_distance_sq(y: ReprMatrix, i: int, j: int) -> int:
    """||y_i - y_j||^2 by exact integer summation over the 416 coordinates."""
    if i == j:
        raise ValueError("distance requires two distinct vertices")
    d = y.entries[:, i] - y.entries[:, j]
    return int(d @ d)


def distance_census(y: ReprMatrix, g: Graph) -> dict[int, int]:
    """Exhaustive scan of all squared pair distances, checked against
    adjacency: 144 exactly on edges, 192 exactly on non-edges."""
    out_of_range = np.argwhere((y.entries < 0) | (y.entries > 4))
    if out_of_range.size:
        i, j = (int(v) for v in out_of_range[0])
        raise VerificationError(
            f"entry y[{i}, {j}] = {y.entry(i, j)} outside [0, 4]",
            witness=(i, j, y.entry(i, j)),
        )
    # Entries in [0, 4] bound every partial sum of the Gram matrix by
    # 416 * 16 = 6656 and every term of d2 by 2 * 6656 = 13312, all below
    # 2**15, so int16 cannot overflow.
    e = y.entries.astype(np.int16)
    gram = np.einsum("ti,tj->ij", e, e)
    diag = np.diag(gram)
    d2 = diag[:, None] + diag[None, :] - 2 * gram
    upper = np.triu(np.ones((y.n, y.n), dtype=bool), k=1)
    values, counts = np.unique(d2[upper], return_counts=True)
    census = {int(v): int(c) for v, c in zip(values, counts)}
    mism = np.argwhere(((d2 == 144) != _adjacency_bits(g).astype(bool)) & upper)
    if mism.size:
        i, j = (int(v) for v in mism[0])
        raise VerificationError(
            "distance/adjacency mismatch", witness=(i, j, int(d2[i, j]))
        )
    if set(census) != {144, 192}:
        raise VerificationError(f"unexpected squared distances {sorted(census)}")
    return census


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


def verify_inner_products(
    y: ReprMatrix, p: list[int], q: list[int], part: Partition
) -> None:
    """<p, y_i> and <q, y_i> must follow the block patterns for all 416 i."""
    pv = np.array(p, dtype=np.int64)
    qv = np.array(q, dtype=np.int64)
    p_dots = pv @ y.entries
    q_dots = qv @ y.entries
    for i in range(y.n):
        block = part.block_of(i)
        if int(p_dots[i]) != P_PATTERN[block]:
            raise VerificationError(
                f"<p, y_{i}> = {int(p_dots[i])}, expected {P_PATTERN[block]} on {block}",
                witness=i,
            )
        if int(q_dots[i]) != Q_PATTERN[block]:
            raise VerificationError(
                f"<q, y_{i}> = {int(q_dots[i])}, expected {Q_PATTERN[block]} on {block}",
                witness=i,
            )
    if int(pv @ qv) != 0:
        raise VerificationError(f"<p, q> = {int(pv @ qv)}, expected 0")
    if int(pv.sum()) != 0 or int(qv.sum()) != 0:
        raise VerificationError("contrast vectors must sum to zero")


def _check_prime(prime: int) -> None:
    """Residues of such a prime are below 2**31, so int64 holds every product
    of two of them."""
    if prime <= 2:
        raise ValueError("prime must exceed 2")
    if prime >= 2**31:
        raise ValueError("prime too large for the int64 elimination kernel")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")


def rank_mod_prime(
    rows, prime: int, prefixes: tuple[int, ...] | None = None
) -> int | tuple[int, ...]:
    """Rank over GF(prime) by Gaussian elimination with modular inverses.

    The reference that `principal_prefix_ranks` is tested against; the
    pipeline does not call it.  Pivoting is deterministic: columns in order,
    first nonzero row below the pivot row.  A column gets a pivot exactly
    when it is independent of the columns before it, so the pivots among the
    first k columns number the rank of those k columns.  With `prefixes`,
    returns that rank for each k in it, all from one elimination; otherwise
    the rank of the whole matrix.
    """
    _check_prime(prime)
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
    matrix, prime: int, prefixes: tuple[int, ...]
) -> tuple[int, ...]:
    """Lower bounds on the rank of the first k columns of a symmetric integer
    matrix, for each k in `prefixes`, from one greedy LDL^T over GF(prime).

    Indices are visited in order; one becomes a pivot when its Schur
    diagonal (with respect to the pivots before it) is nonzero mod prime.
    The pivots P_k among the first k indices give a principal minor
    det M[P_k, P_k] that is nonzero mod prime, hence nonzero over Z, so the
    columns P_k are independent over Q and |P_k| is returned for k.  For a
    positive semidefinite matrix the bound equals the rational rank unless
    the prime divides a pivot.

    Only the L columns of accepted pivots and the Schur diagonal of the
    later indices are computed: O(n r^2) work for rank r, where the column
    elimination of `rank_mod_prime` updates a whole block per pivot.
    """
    _check_prime(prime)
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("principal_prefix_ranks expects a square matrix")
    if not (a == a.T).all():
        i, j = (int(v) for v in np.argwhere(a != a.T)[0])
        raise ValueError(f"matrix is not symmetric: entry ({i}, {j}) != ({j}, {i})")
    a = a % prime
    n = a.shape[0]
    diag = a.diagonal().copy()  # Schur diagonal of every index not yet visited
    lower = np.zeros((n, n), dtype=np.int64)  # row t: L column of pivot t
    pivot_values = np.zeros(n, dtype=np.int64)  # D_t
    pivots: list[int] = []
    i = -1
    while True:
        nz = np.flatnonzero(diag[i + 1 :])
        if nz.size == 0:
            break
        i += 1 + int(nz[0])
        r = len(pivots)
        # Schur column of i below the diagonal: M[j, i] - sum_t L[j, t] D_t L[i, t].
        # Each product is reduced before the sum, so the sum stays below r * prime.
        col = a[i, i + 1 :]
        if r:
            weights = lower[:r, i] * pivot_values[:r] % prime
            terms = lower[:r, i + 1 :] * weights[:, None] % prime
            col = (col - terms.sum(axis=0)) % prime
        pivot_values[r] = diag[i]
        lcol = col * pow(int(diag[i]), -1, prime) % prime
        lower[r, i + 1 :] = lcol
        diag[i + 1 :] = (diag[i + 1 :] - lcol * col % prime) % prime
        pivots.append(i)
    return tuple(sum(1 for c in pivots if c < k) for k in prefixes)


def certified_dimension_chain(
    y: ReprMatrix,
    part: Partition,
    spectrum: Spectrum,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
) -> list[DimensionCertificate]:
    """Certificates for the affine dimensions of V, C+B1, and C.

    Upper bounds: rank(y) = 1 + f from the verified srg identity, minus one
    hyperplane cut per orthogonal vector (the all-ones direction, then p,
    then q), each cut shown proper by an explicit nonzero inner product.
    Lower bounds: every column lies on the hyperplane <1, y_i> = 104 off the
    origin, so affine dimension = linear rank - 1, and the linear rank over
    any prime never exceeds the rational rank; lower = upper pins the
    dimension.  The linear ranks of the three nested sets are read at the
    prefixes 320, 352 and 416 of one principal-pivot LDL^T per prime over
    y[order, order], order = C, B1, B2, B3 (see the module docstring).
    """
    if len(primes) < 2:
        raise ValueError("at least two primes are required")
    if spectrum.f != 65 or spectrum.s != -4:
        raise VerificationError(f"unexpected spectrum {spectrum}")

    col_sums = y.entries.sum(axis=0)
    if not (col_sums == 104).all():
        bad = int(np.nonzero(col_sums != 104)[0][0])
        raise VerificationError(
            f"column {bad} sums to {int(col_sums[bad])}, expected 104", witness=bad
        )

    p, q = build_contrasts(part)
    verify_inner_products(y, p, q, part)

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

    order = list(part.c + part.b1 + part.b2 + part.b3)
    nested = y.entries[np.ix_(order, order)]
    prefixes = tuple(size for _, size, _, _ in sets)
    ranks = {prime: principal_prefix_ranks(nested, prime, prefixes) for prime in primes}

    certificates = []
    for t, (label, size, upper, argument) in enumerate(sets):
        linear_ranks = {prime: ranks[prime][t] for prime in primes}
        for prime, lr in linear_ranks.items():
            if lr > upper + 1:
                raise VerificationError(
                    f"{label}: modular linear rank {lr} exceeds certified upper "
                    f"bound {upper + 1} (mod {prime})"
                )
        lower_bounds = {prime: lr - 1 for prime, lr in linear_ranks.items()}
        lower = max(lower_bounds.values())
        if lower < upper:
            raise InconclusiveError(
                f"{label}: modular lower bound {lower} < upper bound {upper} "
                f"for primes {list(primes)}; try other primes"
            )
        certificates.append(
            DimensionCertificate(
                label=label,
                size=size,
                affine_dim=upper,
                upper_bound=upper,
                lower_bounds=lower_bounds,
                linear_ranks=linear_ranks,
                upper_argument=list(argument),
            )
        )
    return certificates
