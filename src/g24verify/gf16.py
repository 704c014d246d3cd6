"""Arithmetic in GF(16) with the order-2 conjugation x -> x**4.

Elements are 4-bit integers 0..15; bit k is the coefficient of x**k in a
polynomial of degree < 4 over GF(2), so addition (and subtraction) is XOR,
written `^` where it is used.  Multiplication reduces modulo
x**4 + x + 1.  All products are precomputed into a 16x16 table by schoolbook
shift-and-xor reduction; `verify_axioms` certifies the table exhaustively so
nothing rests on a hand-written constant.
"""

from __future__ import annotations

from .errors import VerificationError

SIZE = 16
ORDER = 15
# x**4 + x + 1, encoded with the leading bit: 0b10011, and its name in reports
POLY = 0x13
POLYNOMIAL = "x^4 + x + 1"


def _mul_schoolbook(a: int, b: int) -> int:
    """Carry-less product of a and b reduced modulo POLY."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x10:
            a ^= POLY
    return acc


def _build_tables() -> tuple[list[list[int]], list[int], list[int]]:
    mul = [[_mul_schoolbook(a, b) for b in range(SIZE)] for a in range(SIZE)]
    conj = [0] * SIZE
    for a in range(SIZE):
        a2 = mul[a][a]
        conj[a] = mul[a2][a2]
    inv = [0] * SIZE
    for a in range(1, SIZE):
        for b in range(1, SIZE):
            if mul[a][b] == 1:
                inv[a] = b
                break
    return mul, conj, inv


_MUL, _CONJ, _INV = _build_tables()


def mul(a: int, b: int) -> int:
    return _MUL[a][b]


def inv(a: int) -> int:
    """The inverse of a != 0.  inv(0) is 0, with no error: the callers pass
    only nonzero elements (`hermitian.normalize` its first nonzero
    coordinate, `verify_axioms` 1..15)."""
    return _INV[a]


def conj(a: int) -> int:
    """The involutory field automorphism a -> a**4; fixes exactly GF(4)."""
    return _CONJ[a]


def verify_axioms() -> dict[str, int]:
    """Exhaustive field-axiom suite over the precomputed tables.

    Returns the number of tuples checked per axiom; raises VerificationError
    on the first violation, with the failing element or tuple as witness.
    Covers the full 16**3 cube where relevant, so a pass certifies the
    tables regardless of how they were built.

    The rest of PAPER.md claim 1 follows and is not checked again:
    - the additive group: addition is XOR, so a + a = 0 and a + 0 = a for
      every int;
    - a**15 = 1 for a != 0: identity, commutativity, closure, associativity
      and inverses make the 15 nonzero elements a group (ab = 0 would give
      b = a^-1 (ab) = 0), and Lagrange's theorem gives it;
    - cancellation (each nonzero row of the table a permutation): ab = ac
      gives b = a^-1 (ab) = a^-1 (ac) = c by associativity;
    - the conjugation's properties: it is checked to be a -> a**4 on all 16
      elements, which PAPER.md claim 1 takes as its definition.  In
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
        if mul(a, inv(a)) != 1:
            raise fail("inverse", a)
    checks["inverses"] = ORDER

    for a in range(SIZE):
        sq = table[a][a]  # a**4 from the products, not from _CONJ
        if conj(a) != table[sq][sq]:
            raise fail("conjugation a -> a**4", a)
    checks["conjugation"] = SIZE

    return checks
