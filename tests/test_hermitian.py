"""Tests of `hermitian`: the projective plane, the Hermitian form, the
unital, lines and orthogonal bases, and the isometries; then the GF(16)
tables, checked exhaustively against an independent oracle."""

import pytest

from g24verify import VerificationError, hermitian

import oracles


def test_points_are_normalized_and_unique(plane):
    points = plane[0]
    assert len(set(points)) == 273
    assert (1, 0, 0) in points
    assert (2, 0, 0) not in points
    # Normalizing every nonzero triple recovers exactly the 273 points.
    seen = set()
    for a in range(16):
        for b in range(16):
            for c in range(16):
                if a or b or c:
                    seen.add(hermitian.normalize((a, b, c)))
    assert seen == set(points)


def test_known_isotropy_values():
    assert hermitian.hermitian_form((1, 0, 0), (1, 0, 0)) == 0
    assert hermitian.hermitian_form((0, 1, 0), (0, 1, 0)) == 1
    assert hermitian.is_isotropic((1, 0, 0))
    assert not hermitian.is_isotropic((0, 1, 0))


def test_isotropy_is_representative_independent(plane):
    for p in plane[0]:
        flag = hermitian.is_isotropic(p)
        for s in range(2, 16):
            row = hermitian._MUL[s]
            scaled = (row[p[0]], row[p[1]], row[p[2]])
            assert hermitian.is_isotropic(scaled) == flag


def test_canonical_isotropic_numbering(plane):
    # Indices 1..65 follow enumeration (lexicographic) order.
    number = oracles.iso_number(plane)
    iso = plane[1]
    assert number[iso[0]] == 1
    assert number[iso[64]] == 65
    assert iso == sorted(iso)
    assert iso[0] == (0, 0, 1)


def test_line_has_17_points_and_contains_both(plane):
    a, b = plane[0][0], plane[0][5]
    line = oracles.line_points(a, b)
    assert len(line) == 17
    assert a in line and b in line
    with pytest.raises(ValueError):
        oracles.line_points(a, a)


def test_lines_match_perpendicular_sets(plane):
    """Cross-check: the line through two orthogonal nonisotropic points is
    the perpendicular set of the basis completion (self-polar triangle)."""
    bases = hermitian.enumerate_bases(plane)
    bs = bases[0]
    a, b, c = oracles.basis_points(plane, bs)
    line_ab = set(oracles.line_points(a, b))
    perp_c = {p for p in plane[0] if hermitian.hermitian_form(p, c) == 0}
    assert line_ab == perp_c


def test_isotropic_on_line_returns_5(plane, bases):
    for bs in bases[:25]:
        a, b, c = oracles.basis_points(plane, bs)
        frag = oracles.isotropic_on_line(plane, a, b)
        assert frag.bit_count() == 5
        assert all(1 <= i <= 65 for i in hermitian.members(frag))


def test_isotropic_on_line_preconditions(plane):
    _, iso, noniso = plane
    iso_pt = iso[0]
    non_a = noniso[0]
    with pytest.raises(ValueError):
        oracles.isotropic_on_line(plane, iso_pt, non_a)
    # Non-orthogonal nonisotropic pair must be rejected.
    for q in noniso[1:]:
        if hermitian.hermitian_form(non_a, q) != 0:
            with pytest.raises(ValueError):
                oracles.isotropic_on_line(plane, non_a, q)
            break


def test_triangle_fragments_are_disjoint(plane, bases):
    # isotropic_on_line is the oracle for the polar masks enumerate_bases uses.
    for bs in bases:
        a, b, c = oracles.basis_points(plane, bs)
        f1 = oracles.isotropic_on_line(plane, a, b)
        f2 = oracles.isotropic_on_line(plane, a, c)
        f3 = oracles.isotropic_on_line(plane, b, c)
        assert f1 & f2 == 0 and f1 & f3 == 0 and f2 & f3 == 0
        assert bs[1] == (f3, f2, f1)  # each point's side is its polar line


def test_orthogonal_masks_match_the_form_scan(plane):
    # Every target, isotropic or not, against every point.
    pts = plane[0]
    assert hermitian.orthogonal_masks(pts, pts) == oracles.orthogonal_masks(pts, pts)


def test_bases_and_polar_masks_match_the_pairwise_oracle(plane, bases):
    want, polar = oracles.enumerate_bases(plane)
    assert bases == want
    got = hermitian.orthogonal_masks(plane[1], plane[2])
    assert [m << 1 for m in got] == polar


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("a nonisotropic point twice", "has 2 completions"),
        ("a nonisotropic point missing", "has 0 completions"),
        ("an isotropic point missing", "carries 4 isotropic points"),
    ],
)
def test_enumerate_bases_refuses_a_corrupted_plane(plane, bases, corruption, message):
    # The witness is the first orthogonal pair, in index order, that the
    # nonisotropic point doubled or removed completes: the other two points
    # of a basis through it.  Without an isotropic point, it is the first
    # nonisotropic point orthogonal to that point.
    points, iso, noniso = plane
    if corruption == "a nonisotropic point twice":
        noniso = noniso + [noniso[5]]
        witness = min(tuple(sorted(set(tri) - {5})) for tri, _ in bases if 5 in tri)
    elif corruption == "a nonisotropic point missing":
        noniso = noniso[:-1]
        # The point removed has the last index, so it is last in its bases.
        witness = min(tri[:2] for tri, _ in bases if tri[2] == len(noniso))
    else:
        *iso, removed = iso
        witness = next(t for t in noniso if hermitian.hermitian_form(t, removed) == 0)
    bad = (points, iso, noniso)
    with pytest.raises(VerificationError, match=message) as err:
        hermitian.enumerate_bases(bad)
    assert err.value.witness == witness


def test_bases_are_orthogonal_triples(plane, bases):
    for bs in bases[::37]:
        a, b, c = oracles.basis_points(plane, bs)
        assert hermitian.hermitian_form(a, b) == 0
        assert hermitian.hermitian_form(a, c) == 0
        assert hermitian.hermitian_form(b, c) == 0
        for p in (a, b, c):
            assert not hermitian.is_isotropic(p)


def test_each_nonisotropic_point_in_6_bases(bases):
    counts: dict[int, int] = {}
    for tri, _ in bases:
        for t in tri:
            counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 208
    assert set(counts.values()) == {6}


def test_bases_sorted_canonically(bases):
    triples = [tri for tri, _ in bases]
    assert triples == sorted(triples)
    assert all(t[0] < t[1] < t[2] for t in triples)


def test_isoset_helpers_roundtrip():
    mask = oracles.isoset_from_indices([3, 1, 65])
    assert list(hermitian.members(mask)) == [1, 3, 65]
    with pytest.raises(ValueError):
        oracles.isoset_from_indices([0])
    with pytest.raises(ValueError):
        oracles.isoset_from_indices([66])


def test_isometries_induce_basis_permutations(plane, bases, automorphisms):
    # The point maps lifted to the vertices are the isometries' action on
    # the bases, read from their nonisotropic points.
    assert automorphisms == oracles.basis_permutations(plane, bases)
    assert len(automorphisms) == len(hermitian.ISOMETRIES)
    for perm in automorphisms:
        assert sorted(perm) == list(range(416))
        assert perm != list(range(416))
    # The swap of coordinates 1 and 3 is an involution.
    swap = automorphisms[0]
    assert all(swap[swap[v]] == v for v in range(416))


def test_corrupted_isometry_is_refused(plane, monkeypatch):
    swap, unipotent = hermitian.ISOMETRIES
    bad = ((1, 15, 6), unipotent[1], unipotent[2])
    with pytest.raises(VerificationError, match="does not preserve H") as err:
        hermitian.point_permutations(plane, (swap, bad))
    assert err.value.witness == bad
    scaled = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(VerificationError) as err:
        hermitian.point_permutations(plane, (scaled,))
    assert err.value.witness == scaled
    # A singular matrix sends (0, 0, 1) to the zero vector, which
    # `normalize` has no point for; the H check refuses it before any image
    # is normalized.
    singular = ((0, 0, 0), (0, 1, 0), (1, 0, 0))
    monkeypatch.setattr(hermitian, "normalize", lambda v: pytest.fail("normalized"))
    with pytest.raises(VerificationError, match="does not preserve H") as err:
        hermitian.point_permutations(plane, (singular,))
    assert err.value.witness == singular


# GF(16) tables: exhaustive checks against an independent oracle.

MUL, INV, CONJ = hermitian._MUL, hermitian._INV, hermitian._CONJ


def poly_mul_mod(a: int, b: int) -> int:
    """Oracle: coefficient-list product reduced by x^4 = x + 1."""
    pa = [(a >> k) & 1 for k in range(4)]
    pb = [(b >> k) & 1 for k in range(4)]
    prod = [0] * 7
    for i in range(4):
        for j in range(4):
            prod[i + j] ^= pa[i] & pb[j]
    for deg in range(6, 3, -1):
        if prod[deg]:
            prod[deg] = 0
            prod[deg - 3] ^= 1
            prod[deg - 4] ^= 1
    return sum(prod[k] << k for k in range(4))


def test_mul_matches_schoolbook_oracle():
    for a in range(16):
        for b in range(16):
            assert MUL[a][b] == poly_mul_mod(a, b)


def test_addition_is_char_2():
    # Addition is XOR of the coefficient bits: a + a = 0, and the product
    # distributes over it.
    for a in range(16):
        assert a ^ a == 0 and a ^ 0 == a
        for b in range(16):
            assert MUL[a][b ^ 1] == MUL[a][b] ^ a
    assert 0b0011 ^ 0b0101 == 0b0110


def power(a: int, n: int) -> int:
    """Oracle: a**n as n products by a, from the `_MUL` table alone."""
    acc = 1
    for _ in range(n):
        acc = MUL[acc][a]
    return acc


def smallest_generator() -> int:
    """The smallest element whose powers reach all 15 nonzero elements."""
    return next(
        g for g in range(2, 16) if len({power(g, k) for k in range(15)}) == 15
    )


def test_generator_is_smallest_and_has_order_15():
    g = smallest_generator()
    assert g == 2
    powers = {power(g, k) for k in range(15)}
    assert powers == set(range(1, 16))
    assert power(g, 15) == 1


def test_inverse_table():
    assert INV[1] == 1
    for a in range(1, 16):
        assert MUL[a][INV[a]] == 1
    # Lagrange: the inverse is the 14th power.
    for a in range(1, 16):
        assert INV[a] == power(a, 14)


def test_power_table_from_repeated_multiplication():
    """Discrete-log oracle: exp built by repeated mul is a bijection."""
    g = smallest_generator()
    exp = [1]
    for _ in range(14):
        exp.append(MUL[exp[-1]][g])
    assert sorted(exp) == list(range(1, 16))
    assert MUL[g][exp[14]] == 1  # g * g^14 = g^15 = 1
    for k, v in enumerate(exp):
        assert INV[v] == exp[(15 - k) % 15]


def test_conjugation_is_frobenius_squared():
    for a in range(16):
        assert CONJ[a] == power(a, 4)
        assert CONJ[CONJ[a]] == a
    assert CONJ[0] == 0 and CONJ[1] == 1
    fixed = [a for a in range(16) if CONJ[a] == a]
    assert len(fixed) == 4


def test_conjugation_respects_field_structure():
    for a in range(16):
        for b in range(16):
            assert CONJ[a ^ b] == CONJ[a] ^ CONJ[b]
            assert CONJ[MUL[a][b]] == MUL[CONJ[a]][CONJ[b]]


def test_norm_lands_in_fixed_field():
    fixed = {a for a in range(16) if CONJ[a] == a}
    for a in range(16):
        norm = MUL[a][CONJ[a]]
        assert norm == power(a, 5)
        assert norm in fixed


def test_nonzero_elements_have_order_dividing_15():
    for a in range(1, 16):
        assert power(a, 15) == 1


def test_verify_axioms_detects_corruption():
    original = hermitian._MUL[3][5]
    hermitian._MUL[3][5] = original ^ 1
    try:
        with pytest.raises(VerificationError):
            hermitian.verify_axioms()
    finally:
        hermitian._MUL[3][5] = original
