"""Arithmetic in GF(16) with the order-2 conjugation x -> x**4.

Elements are 4-bit integers 0..15; bit k is the coefficient of x**k in a
polynomial of degree < 4 over GF(2), so addition (and subtraction) is XOR,
written `^` where it is used.  Multiplication reduces modulo
x**4 + x + 1.  The import builds the product, conjugation and inverse
tables from one walk of the powers of x (a log/antilog table) and loads no
other module; `verify_axioms` certifies the tables exhaustively so nothing
rests on a hand-written constant or on how they were built.
"""

from .errors import VerificationError

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
        if mul(a, inv(a)) != 1:
            raise fail("inverse", a)
    checks["inverses"] = ORDER

    for a in range(SIZE):
        sq = table[a][a]  # a**4 from the products, not from _CONJ
        if conj(a) != table[sq][sq]:
            raise fail("conjugation a -> a**4", a)
    checks["conjugation"] = SIZE

    return checks
