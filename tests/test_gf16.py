"""Exhaustive checks of the GF(16) tables against an independent oracle."""

import pytest

from g24verify import VerificationError, hermitian

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
    """Oracle: a**n as n products by a, from `hermitian.mul` alone."""
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
