"""Euclidean representation y = A + 4I and the certified dimension chain.

y is never stored apart from the graph: its column i is row i of A (A is
symmetric, as the srg stage verified) with 4 at coordinate i, read through
`column_digits`.  Its columns realise the graph as a two-distance point set
(squared distances 144 on edges, 192 on non-edges, `graph.DISTANCE_CENSUS`);
those distances follow from the verified srg parameters, so no pair is
scanned.  The contrast vectors p and q are constant on the blocks of the
anchored split, so their inner products with the columns of y follow from
the block counts (`graph.CLAIM1`) and the block sizes: the dimension-chain
stage reports them as constants, and none is counted.

The chain of affine dimensions 65 -> 64 -> 63 of V, C+B1 and C is exact,
each step two-sided, with no elimination: the rank of y from its verified
spectrum, the rank on C from a cubic identity of the graph induced on C,
checked on one row and carried to every row by two words in the verified
automorphisms, and the step between them from p and q.  Every check is
exact integer arithmetic; there is no floating point and no array library.
"""

from .errors import VerificationError
from .graph import CLAIM1, SPECTRUM, SRG, STABILIZER_WORDS, Partition
from .hermitian import members

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
      (`graph.SPECTRUM`), so rank y = 1 + f = 66.
    - C: the words `graph.STABILIZER_WORDS` are automorphisms that map C
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
    reports them), and `graph.stabilizer` on the words, which that stage
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
