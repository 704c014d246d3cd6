"""Arithmetic in GF(16) with the order-2 conjugation x -> x**4.

Elements are 4-bit integers 0..15; bit k is the coefficient of x**k in a
polynomial of degree < 4 over GF(2).  Multiplication reduces modulo
x**4 + x + 1.  All products are precomputed into a 16x16 table by schoolbook
shift-and-xor reduction; `verify_axioms` certifies the table exhaustively so
nothing rests on a hand-written constant.
"""

from __future__ import annotations

from .errors import VerificationError

SIZE = 16
ORDER = 15
# x**4 + x + 1, encoded with the leading bit: 0b10011
POLY = 0x13


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


def add(a: int, b: int) -> int:
    """Coefficient-wise sum over GF(2); doubles as subtraction."""
    return a ^ b


def mul(a: int, b: int) -> int:
    return _MUL[a][b]


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(16)")
    return _INV[a]


def conj(a: int) -> int:
    """The involutory field automorphism a -> a**4; fixes exactly GF(4)."""
    return _CONJ[a]


def power(a: int, n: int) -> int:
    """a**n for n >= 0."""
    if n < 0:
        raise ValueError("negative exponent")
    acc = 1
    base = a
    while n:
        if n & 1:
            acc = _MUL[acc][base]
        base = _MUL[base][base]
        n >>= 1
    return acc


def norm(a: int) -> int:
    """a * conj(a) = a**5; always lands in the fixed field GF(4)."""
    return _MUL[a][_CONJ[a]]


def _find_generator() -> int:
    for g in range(2, SIZE):
        seen = set()
        x = 1
        for _ in range(ORDER):
            seen.add(x)
            x = _MUL[x][g]
        if len(seen) == ORDER:
            return g
    raise VerificationError("no multiplicative generator found")


GENERATOR = _find_generator()


def verify_axioms() -> dict[str, int]:
    """Exhaustive field-axiom suite over the precomputed tables.

    Returns the number of tuples checked per axiom; raises VerificationError
    on the first violation, with the failing element or tuple as witness.
    Covers the full 16**3 cube where relevant, so a pass certifies the
    tables regardless of how they were built.
    """
    checks: dict[str, int] = {}

    def fail(axiom: str, witness) -> VerificationError:
        return VerificationError(f"{axiom} failed at {witness}", witness=witness)

    for a in range(SIZE):
        if add(a, a) != 0 or add(a, 0) != a:
            raise fail("additive axiom", a)
        if mul(a, 1) != a or mul(a, 0) != 0:
            raise fail("multiplicative identity", a)
    checks["identity"] = SIZE

    n = 0
    for a in range(SIZE):
        for b in range(SIZE):
            if mul(a, b) != mul(b, a):
                raise fail("commutativity", (a, b))
            if mul(a, b) >= SIZE:
                raise fail("closure", (a, b))
            n += 1
    checks["commutativity"] = n

    n = 0
    for a in range(SIZE):
        for b in range(SIZE):
            for c in range(SIZE):
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    raise fail("associativity", (a, b, c))
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    raise fail("distributivity", (a, b, c))
                n += 1
    checks["associativity_distributivity"] = n

    for a in range(1, SIZE):
        if mul(a, inv(a)) != 1:
            raise fail("inverse", a)
        if power(a, ORDER) != 1:
            raise fail("a**15 == 1", a)
        # Each nonzero row is a permutation: cancellation, hence unique
        # inverses and no zero divisors.
        if sorted(mul(a, b) for b in range(SIZE)) != list(range(SIZE)):
            raise fail("row of the product table is a permutation", a)
    checks["inverses"] = ORDER

    fixed = 0
    for a in range(SIZE):
        if conj(conj(a)) != a:
            raise fail("conjugation involutory", a)
        if conj(a) == a:
            fixed += 1
        if norm(a) not in _subfield_gf4():
            raise fail("norm in GF(4)", a)
        for b in range(SIZE):
            if conj(add(a, b)) != add(conj(a), conj(b)):
                raise fail("conj additive", (a, b))
            if conj(mul(a, b)) != mul(conj(a), conj(b)):
                raise fail("conj multiplicative", (a, b))
    if fixed != 4:
        raise VerificationError(
            f"fixed field of conjugation has size {fixed}, want 4", witness=fixed
        )
    checks["conjugation"] = SIZE * SIZE

    return checks


def _subfield_gf4() -> frozenset[int]:
    return frozenset(a for a in range(SIZE) if power(a, 4) == a)


def polynomial_label() -> str:
    """Human-readable name of the reduction polynomial, for reports."""
    return "x^4 + x + 1"
