"""PG(2,16) with a nondegenerate Hermitian form.

Points are normalized homogeneous triples over GF(16) (first nonzero
coordinate equal to 1), enumerated in lexicographic order of their
encodings.  The form is

    H(a, b) = a1*conj(b3) + a2*conj(b2) + a3*conj(b1)

with conjugation x -> x**4.  Its 65 isotropic points (H(a,a) = 0) receive
the canonical indices 1..65 in enumeration order; iso-sets are bit-packed
with bit i standing for canonical index i.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf16
from .errors import ConstructionError

Point = tuple[int, int, int]

POINT_COUNT = 273
ISOTROPIC_COUNT = 65
NONISOTROPIC_COUNT = 208
BASIS_COUNT = 416
ISOSET_SIZE = 15

Matrix = tuple[Point, Point, Point]  # rows; acts on column vectors

# Isometries of H: the swap of coordinates 1 and 3 and two unipotents.  The
# bases form a single orbit under the group they generate.
ISOMETRIES: tuple[Matrix, ...] = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ((1, 15, 5), (0, 1, 8), (0, 0, 1)),
)


def hermitian_form(a: Point, b: Point) -> int:
    return (
        gf16.mul(a[0], gf16.conj(b[2]))
        ^ gf16.mul(a[1], gf16.conj(b[1]))
        ^ gf16.mul(a[2], gf16.conj(b[0]))
    )


def is_isotropic(a: Point) -> bool:
    return hermitian_form(a, a) == 0


def normalize(v: Point) -> Point:
    """Scale so the first nonzero coordinate is 1; unique per point."""
    for c in v:
        if c:
            if c == 1:
                return v
            s = gf16.inv(c)
            return (gf16.mul(s, v[0]), gf16.mul(s, v[1]), gf16.mul(s, v[2]))
    raise ValueError("zero vector has no projective class")


def enumerate_points() -> list[Point]:
    """All 273 normalized points, lexicographically ordered."""
    pts: list[Point] = [(0, 0, 1)]
    pts.extend((0, 1, z) for z in range(16))
    pts.extend((1, y, z) for y in range(16) for z in range(16))
    return pts


@dataclass(frozen=True)
class Basis:
    """Orthogonal basis of three nonisotropic points plus its iso-set."""

    noniso_indices: tuple[int, int, int]
    points: tuple[Point, Point, Point]
    isoset: int


@dataclass
class Plane:
    points: list[Point]
    isotropic: list[Point]
    nonisotropic: list[Point]
    iso_number: dict[Point, int]

    def iso_index(self, p: Point) -> int:
        return self.iso_number[p]


def classify_points(points: list[Point]) -> tuple[list[Point], list[Point]]:
    iso = [p for p in points if is_isotropic(p)]
    noniso = [p for p in points if not is_isotropic(p)]
    return iso, noniso


def build_plane() -> Plane:
    points = enumerate_points()
    if len(points) != POINT_COUNT or len(set(points)) != POINT_COUNT:
        raise ConstructionError(f"expected {POINT_COUNT} distinct points")
    for p in points:
        if normalize(p) != p:
            raise ConstructionError(f"non-normalized point {p} enumerated")
    iso, noniso = classify_points(points)
    if len(iso) != ISOTROPIC_COUNT or len(noniso) != NONISOTROPIC_COUNT:
        raise ConstructionError(
            f"point census {len(iso)}/{len(noniso)}, "
            f"expected {ISOTROPIC_COUNT}/{NONISOTROPIC_COUNT}"
        )
    iso_number = {p: i + 1 for i, p in enumerate(iso)}
    return Plane(points, iso, noniso, iso_number)


def isoset_members(mask: int) -> list[int]:
    return [i for i in range(1, ISOTROPIC_COUNT + 1) if mask >> i & 1]


def enumerate_bases(plane: Plane) -> list[Basis]:
    """All 416 orthogonal bases, sorted by their nonisotropic index triple.

    Every orthogonal nonisotropic pair extends to exactly one basis: the
    perpendicular lines of the pair meet in a single point, which must turn
    out nonisotropic and orthogonal to both.
    """
    noniso = plane.nonisotropic
    n = len(noniso)
    # H(b, a) = conj(H(a, b)), so orthogonality is symmetric: test each
    # unordered pair once.  Appending in (i, j) order keeps every list sorted.
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
                raise ConstructionError(
                    f"orthogonal pair ({i},{j}) has {len(completions)} completions"
                )
            k = completions[0]
            triples.add(tuple(sorted((i, j, k))))

    # The side bc of basis {a, b, c} is the polar line of a, so its isotropic
    # points are those orthogonal to a: one mask per point serves every side.
    polar = []
    for t in noniso:
        mask = 0
        for idx, p in enumerate(plane.isotropic, start=1):
            if hermitian_form(p, t) == 0:
                mask |= 1 << idx
        if mask.bit_count() != 5:
            raise ConstructionError(
                f"polar line of {t} carries {mask.bit_count()} isotropic points"
            )
        polar.append(mask)

    bases: list[Basis] = []
    for tri in sorted(triples):
        f_bc, f_ac, f_ab = (polar[t] for t in tri)
        if f_ab & f_ac or f_ab & f_bc or f_ac & f_bc:
            raise ConstructionError(f"triangle sides of {tri} share isotropic points")
        isoset = f_ab | f_ac | f_bc
        if isoset.bit_count() != ISOSET_SIZE:
            raise ConstructionError(
                f"iso-set of {tri} has {isoset.bit_count()} members"
            )
        bases.append(Basis(tri, tuple(noniso[t] for t in tri), isoset))

    if len(bases) != BASIS_COUNT:
        raise ConstructionError(f"found {len(bases)} bases, expected {BASIS_COUNT}")
    if len({bs.isoset for bs in bases}) != BASIS_COUNT:
        raise ConstructionError("iso-sets are not pairwise distinct")
    return bases


def _apply(m: Matrix, p: Point) -> Point:
    return tuple(
        gf16.mul(row[0], p[0]) ^ gf16.mul(row[1], p[1]) ^ gf16.mul(row[2], p[2])
        for row in m
    )


def basis_permutations(
    plane: Plane, bases: list[Basis], matrices: tuple[Matrix, ...] = ISOMETRIES
) -> list[list[int]]:
    """The permutation of the bases induced by each isometry of H.

    Each matrix must preserve H on the nine standard basis pairs, which by
    sesquilinearity means it preserves H everywhere; it then maps
    nonisotropic points to nonisotropic points and orthogonal bases to
    orthogonal bases.
    """
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    noniso_index = {p: i for i, p in enumerate(plane.nonisotropic)}
    basis_index = {b.noniso_indices: k for k, b in enumerate(bases)}
    perms = []
    for m in matrices:
        images = [_apply(m, e) for e in unit]
        if any(
            hermitian_form(images[a], images[b]) != hermitian_form(unit[a], unit[b])
            for a in range(3)
            for b in range(3)
        ):
            raise ConstructionError(f"matrix {m} does not preserve H")
        point_image = [
            noniso_index[normalize(_apply(m, p))] for p in plane.nonisotropic
        ]
        perms.append(
            [
                basis_index[tuple(sorted(point_image[t] for t in b.noniso_indices))]
                for b in bases
            ]
        )
    return perms
