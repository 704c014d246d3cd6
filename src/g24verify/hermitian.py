"""GF(16) with its conjugation, and PG(2,16) with a nondegenerate Hermitian
form.

Field elements are 4-bit integers 0..15; bit k is the coefficient of x**k
in a polynomial of degree < 4 over GF(2), so addition (and subtraction) is
XOR, written `^` where it is used.  Multiplication reduces modulo
x**4 + x + 1, and the conjugation is the order-2 automorphism x -> x**4.
The import builds the product, conjugation and inverse tables from one walk
of the powers of x (a log/antilog table) and loads no other module; the
arithmetic below reads them directly, one list index per product, and
`verify_axioms` certifies them exhaustively so nothing rests on a
hand-written constant or on how they were built.

Points are normalized homogeneous triples over GF(16) (first nonzero
coordinate equal to 1), enumerated in lexicographic order of their
encodings.  The form is

    H(a, b) = a1*conj(b3) + a2*conj(b2) + a3*conj(b1)

Its 65 isotropic points (H(a,a) = 0) receive the canonical indices 1..65 in
enumeration order; iso-sets are bit-packed with bit i standing for
canonical index i.

Orthogonality is computed a whole point list at a time: sorting the points
by the value of each coordinate gives bit-planes of the products in H, and
the points orthogonal to t form one bit mask (`orthogonal_masks`).  The
bases and the sides of their triangles are read from these masks, with no
loop over pairs of points.
"""

from . import VerificationError

SIZE = 16
ORDER = 15
# x**4 + x + 1, encoded with the leading bit: 0b10011, and its name in reports
POLY = 0x13
POLYNOMIAL = "x^4 + x + 1"


def _build_tables() -> tuple[list[list[int]], list[int], list[int]]:
    """The product, conjugation and inverse tables from one walk of the
    powers of x: exp[i] = x**i, doubled to 30 entries so that no sum of two
    logarithms needs reducing mod 15.  x is primitive, so the walk meets
    every nonzero element once and log inverts it; were it not,
    `verify_axioms` would refuse the tables."""
    exp = [1]
    for _ in range(ORDER - 1):
        a = exp[-1] << 1
        exp.append(a ^ POLY if a & 0x10 else a)
    exp += exp
    log = [0] * SIZE
    for i in range(ORDER):
        log[exp[i]] = i
    logs = log[1:]  # the logarithms of 1..15
    mul = [[0] * SIZE] + [[0] + [exp[i + j] for j in logs] for i in logs]
    conj = [0] + [exp[4 * i % ORDER] for i in logs]
    inv = [0] + [exp[ORDER - i] for i in logs]
    return mul, conj, inv


# _MUL[a][b] = a * b; _CONJ[a] = a**4, the involutory automorphism, which
# fixes exactly GF(4); _INV[a] the inverse of a != 0.  _INV[0] is 0, with no
# error: only nonzero elements are looked up (`normalize` its first nonzero
# coordinate, `verify_axioms` 1..15).
_MUL, _CONJ, _INV = _build_tables()


def verify_axioms() -> dict[str, int]:
    """Exhaustive field-axiom suite over the precomputed tables.

    Returns the number of tuples checked per axiom; raises VerificationError
    on the first violation, with the failing element or tuple as witness.
    Covers the full 16**3 cube where relevant, so a pass certifies the
    tables regardless of how they were built.

    The rest of README claim 1 follows and is not checked again:
    - the additive group: addition is XOR, so a + a = 0 and a + 0 = a for
      every int;
    - a**15 = 1 for a != 0: identity, commutativity, closure, associativity
      and inverses make the 15 nonzero elements a group (ab = 0 would give
      b = a^-1 (ab) = 0), and Lagrange's theorem gives it;
    - cancellation (each nonzero row of the table a permutation): ab = ac
      gives b = a^-1 (ab) = a^-1 (ac) = c by associativity;
    - the conjugation's properties: it is checked to be a -> a**4 on all 16
      elements, which README claim 1 takes as its definition.  In
      characteristic 2, squaring is additive, so a**4 is too, and it is
      multiplicative in any commutative ring; a**16 = a (Lagrange again) makes
      it involutory; its fixed points are the 4 roots of x**4 = x, the
      subfield GF(4); and the norm a * conj(a) = a**5 is fixed by it, as
      a**20 = a**5, so it lies in GF(4).
    """
    checks: dict[str, int] = {}

    def fail(axiom: str, witness) -> VerificationError:
        return VerificationError(f"{axiom} failed at {witness}", witness=witness)

    table = _MUL  # read directly: each product below is one list index
    for a in range(SIZE):
        if table[a][1] != a or table[a][0] != 0:
            raise fail("multiplicative identity", a)
    checks["identity"] = SIZE

    n = 0
    for a in range(SIZE):
        row = table[a]
        for b in range(SIZE):
            if row[b] != table[b][a]:
                raise fail("commutativity", (a, b))
            if row[b] >= SIZE:
                raise fail("closure", (a, b))
            n += 1
    checks["commutativity"] = n

    n = 0
    for a in range(SIZE):
        row = table[a]
        for b in range(SIZE):
            ab_row, b_row = table[row[b]], table[b]
            for c in range(SIZE):
                if ab_row[c] != row[b_row[c]]:
                    raise fail("associativity", (a, b, c))
                if row[b ^ c] != row[b] ^ row[c]:
                    raise fail("distributivity", (a, b, c))
                n += 1
    checks["associativity_distributivity"] = n

    for a in range(1, SIZE):
        if table[a][_INV[a]] != 1:
            raise fail("inverse", a)
    checks["inverses"] = ORDER

    for a in range(SIZE):
        sq = table[a][a]  # a**4 from the products, not from _CONJ
        if _CONJ[a] != table[sq][sq]:
            raise fail("conjugation a -> a**4", a)
    checks["conjugation"] = SIZE

    return checks


Point = tuple[int, int, int]

ISOTROPIC_COUNT = 65
NONISOTROPIC_COUNT = 208
ISOSET_SIZE = 15

Matrix = tuple[Point, Point, Point]  # rows; acts on column vectors

# Isometries of H: the swap of coordinates 1 and 3 and one unipotent.  Their
# point maps (`point_permutations`) leave one orbit on the isotropic points,
# and lifted to the bases (`graph.vertex_permutations`) one on the bases;
# the anchor-invariance and srg stages require both.
ISOMETRIES: tuple[Matrix, ...] = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 15, 5), (0, 1, 8), (0, 0, 1)),
)


def hermitian_form(a: Point, b: Point) -> int:
    return _MUL[a[0]][_CONJ[b[2]]] ^ _MUL[a[1]][_CONJ[b[1]]] ^ _MUL[a[2]][_CONJ[b[0]]]


def is_isotropic(a: Point) -> bool:
    return hermitian_form(a, a) == 0


def normalize(v: Point) -> Point:
    """Scale so the first nonzero coordinate is 1; unique per point.  The
    zero vector, which has no point, gives None, with no error: the only
    caller, `point_permutations`, normalizes images under a matrix that it
    has shown preserves H, hence invertible, so no image is zero."""
    for c in v:
        if c:
            if c == 1:
                return v
            row = _MUL[_INV[c]]
            return (row[v[0]], row[v[1]], row[v[2]])


def enumerate_points() -> list[Point]:
    """All 273 normalized points, lexicographically ordered: (0, 0, 1),
    (0, 1, z) and (1, y, z), written out directly, so each is normalized and
    none repeats."""
    pts: list[Point] = [(0, 0, 1)]
    pts.extend((0, 1, z) for z in range(16))
    pts.extend((1, y, z) for y in range(16) for z in range(16))
    return pts


# The points, the isotropic ones and the nonisotropic ones.
Plane = tuple[list[Point], list[Point], list[Point]]

# Orthogonal basis: its three nonisotropic points, as ascending indices into
# the plane's nonisotropic points, and its iso-set.
Basis = tuple[tuple[int, int, int], int]


def build_plane() -> Plane:
    """The points split into isotropic and nonisotropic; refuses any census
    but 65/208 (README claim 2), witness the two counts."""
    points = enumerate_points()
    iso = [p for p in points if is_isotropic(p)]
    noniso = [p for p in points if not is_isotropic(p)]
    if len(iso) != ISOTROPIC_COUNT or len(noniso) != NONISOTROPIC_COUNT:
        raise VerificationError(
            f"point census {len(iso)}/{len(noniso)}, "
            f"expected {ISOTROPIC_COUNT}/{NONISOTROPIC_COUNT}",
            witness=(len(iso), len(noniso)),
        )
    return points, iso, noniso


def members(mask: int):
    """The set bits of `mask`, ascending: the points of an iso-set, the
    vertices of a vertex mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def orthogonal_masks(points: list[Point], targets: list[Point]) -> list[int]:
    """For each t in `targets`, the mask of the indices x of `points` with
    H(points[x], t) = 0, bit x standing for points[x].

    H(x, t) = x1*conj(t3) + x2*conj(t2) + x3*conj(t1) is a sum of three
    products x_k * c.  The points with x_k * c carrying bit b are the union,
    over the values v with bit b in v * c, of the points with x_k = v, so one
    pass over the points gives the 3 x 16 masks by coordinate value, and
    these give the four bit-planes of every x_k * c.  The zeros of H(-, t)
    are then the points where the three planes of each bit XOR to 0.
    """
    by_value = [[0] * SIZE for _ in range(3)]
    for x, p in enumerate(points):
        for k in range(3):
            by_value[k][p[k]] |= 1 << x
    # planes[k][c][b]: the points x with bit b set in x_k * c, a union of
    # disjoint masks, so their sum
    planes = [
        [
            [
                sum(m for v, m in enumerate(masks) if _MUL[v][c] >> b & 1)
                for b in range(4)
            ]
            for c in range(SIZE)
        ]
        for masks in by_value
    ]
    full = (1 << len(points)) - 1
    result = []
    for t in targets:
        p0 = planes[0][_CONJ[t[2]]]
        p1 = planes[1][_CONJ[t[1]]]
        p2 = planes[2][_CONJ[t[0]]]
        nonzero = (p0[0] ^ p1[0] ^ p2[0]) | (p0[1] ^ p1[1] ^ p2[1])
        nonzero |= (p0[2] ^ p1[2] ^ p2[2]) | (p0[3] ^ p1[3] ^ p2[3])
        result.append(full & ~nonzero)
    return result


def enumerate_bases(plane: Plane) -> list[Basis]:
    """All 416 orthogonal bases, sorted by their nonisotropic index triple.

    Every orthogonal nonisotropic pair extends to exactly one basis: the
    perpendicular lines of the pair meet in a single point, which must turn
    out nonisotropic and orthogonal to both.  Orthogonality is read from
    `orthogonal_masks`, one mask per point, so a pair's completions are the
    bits of orth[i] & orth[j].

    The counts need no check of their own.  The polar line of a point has
    17 points, 5 of them isotropic (checked), so each nonisotropic point is
    orthogonal to 12 nonisotropic points; with one completion per pair
    (checked), it lies in 12 / 2 = 6 bases, and there are 208 * 6 / 3 = 416
    of them, which `graph.build_graph` requires anyway.  Two bases with equal
    iso-sets need no check either: the srg stage lifts each point map sigma
    to the vertices (`graph.vertex_permutations`) and refuses a vertex whose
    image under sigma is no iso-set, witness (map, vertex), before any pair
    is read; a lift that passes sends both bases to one vertex, and
    `verify_srg` refuses a map that is no permutation.  Nor do the three
    sides of a basis need a disjointness check: its iso-set is their
    union, each side carries 5 isotropic points, and `graph.build_graph`
    requires 15 members, which three sides of 5 reach only when disjoint.
    """
    _, iso, noniso = plane
    # H(b, a) = conj(H(a, b)), so orth is symmetric, and a nonisotropic point
    # is not orthogonal to itself: orth[i] & orth[j] holds neither i nor j.
    orth = orthogonal_masks(noniso, noniso)
    triples = []  # each basis i < j < k once, at its pair (i, j): in index order
    for i, orth_i in enumerate(orth):
        for j in members(orth_i >> (i + 1) << (i + 1)):
            completions = orth_i & orth[j]
            if completions.bit_count() != 1:
                raise VerificationError(
                    f"orthogonal pair ({i},{j}) has "
                    f"{completions.bit_count()} completions",
                    witness=(i, j),
                )
            k = completions.bit_length() - 1
            if k > j:
                triples.append((i, j, k))

    # The side bc of basis {a, b, c} is the polar line of a, so its isotropic
    # points are those orthogonal to a: one mask per point serves every side.
    # Isotropic point x has canonical index x + 1.
    polar = [m << 1 for m in orthogonal_masks(iso, noniso)]
    for t, mask in zip(noniso, polar):
        if mask.bit_count() != 5:
            raise VerificationError(
                f"polar line of {t} carries {mask.bit_count()} isotropic points",
                witness=t,
            )

    return [(tri, polar[tri[0]] | polar[tri[1]] | polar[tri[2]]) for tri in triples]


def _apply(m: Matrix, p: Point) -> Point:
    return tuple(_MUL[r[0]][p[0]] ^ _MUL[r[1]][p[1]] ^ _MUL[r[2]][p[2]] for r in m)


def point_permutations(
    plane: Plane, matrices: tuple[Matrix, ...] = ISOMETRIES
) -> list[list[int]]:
    """The permutation of the isotropic points induced by each isometry of
    H, counted from 0: sigma[a - 1] = b - 1 when the matrix sends the point
    of canonical index a to that of index b.

    Each matrix must preserve H on the nine standard basis pairs, which by
    sesquilinearity means it preserves H everywhere; it is then invertible
    (H is nondegenerate) and maps isotropic points onto isotropic points.
    """
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    _, iso, _ = plane
    index = {p: a for a, p in enumerate(iso)}
    perms = []
    for m in matrices:
        images = [_apply(m, e) for e in unit]
        if any(
            hermitian_form(images[a], images[b]) != hermitian_form(unit[a], unit[b])
            for a in range(3)
            for b in range(3)
        ):
            raise VerificationError(f"matrix {m} does not preserve H", witness=m)
        perms.append([index[normalize(_apply(m, p))] for p in iso])
    return perms
