"""Arithmetic in finite fields F_{p^m}.

Elements are stored as packed integer codes: the polynomial
c_0 + c_1 x + ... + c_{m-1} x^{m-1} over F_p is the integer
sum c_i p^i.  Constants embed as their residue, so code 0 is zero
and code 1 is one in every field.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadRange,
    BudgetExceeded,
    DivisionByZero,
    NonPrime,
    SpecMismatch,
)

ORDER_BUDGET = 2**20
PRIME_BUDGET = 2**31
# exp/log tables are built lazily: eagerly useful below the scalar limit,
# tolerable on demand up to the vector limit (largest GL_1 context).
SCALAR_EXPLOG_LIMIT = 2**12
VECTOR_EXPLOG_LIMIT = 2**17


def is_prime(p: int) -> bool:
    """Trial-division primality test, adequate for p <= 2^31."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# field contexts


class FieldSpec:
    """A concrete construction of F_{p^m} with a fixed modulus."""

    __slots__ = ("p", "m", "q", "modulus", "_explog", "_digits", "_powers", "_tables")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._explog: tuple | None = None
        self._digits: np.ndarray | None = None
        self._powers: np.ndarray | None = None
        self._tables: tuple | None = None

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"FieldSpec(F_{self.p})"
        return f"FieldSpec(F_{self.p}^{self.m}, modulus={poly_str(self.modulus)})"

    # -- code <-> coefficient conversions

    def code_to_coeffs(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def coeffs_to_code(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def element(self, value) -> "FieldElement":
        """Wrap an integer code, an integer constant, or a coefficient list."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatch("element from a different field")
            return value
        if isinstance(value, (list, tuple)):
            if len(value) > self.m:
                raise BadRange("too many coefficients")
            return FieldElement(self, self.coeffs_to_code(value))
        code = int(value)
        if 0 <= code < self.q:
            return FieldElement(self, code)
        # out-of-range integers are reduced as constants
        return FieldElement(self, code % self.p)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        return [FieldElement(self, c) for c in range(self.q)]

    # -- scalar arithmetic on codes

    def add_code(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return (-a) % p
        out = 0
        mult = 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub_code(self, a: int, b: int) -> int:
        return self.add_code(a, self.neg_code(b))

    def _mul_direct(self, a: int, b: int) -> int:
        """Table-free product, used while the exp/log tables are being built."""
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        fp = _prime_field(self.p)
        prod = poly_mul(fp, self.code_to_coeffs(a), self.code_to_coeffs(b))
        return self.coeffs_to_code(poly_mod(fp, prod, self.modulus))

    def _pow_direct(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_direct(result, base)
            base = self._mul_direct(base, base)
            e >>= 1
        return result

    def mul_code(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._explog is None and self.q <= SCALAR_EXPLOG_LIMIT:
            self._build_explog()
        if self._explog is not None:
            exp, log = self._explog
            return int(exp[(int(log[a]) + int(log[b])) % (self.q - 1)])
        return self._mul_direct(a, b)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.m == 1:
            return pow(a, -1, self.p)
        if self._explog is None and self.q <= SCALAR_EXPLOG_LIMIT:
            self._build_explog()
        if self._explog is not None:
            exp, log = self._explog
            return int(exp[(self.q - 1 - int(log[a])) % (self.q - 1)])
        # extended euclid in F_p[x]; s tracks the coefficient of a, and the
        # last nonzero remainder r0 is a constant since the modulus is irreducible
        fp = _prime_field(self.p)
        r0, r1 = self.modulus, poly_trim(self.code_to_coeffs(a))
        s0, s1 = (), (1,)
        while r1:
            quo, rem = poly_divmod(fp, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(fp, s0, poly_mul(fp, quo, s1))
        return self.coeffs_to_code(poly_mul(fp, s0, (fp.inv_code(r0[0]),)))

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_code(self.inv_code(a), -e)
        if e == 0:
            return 1
        if a == 0:
            return 0
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_code(result, base)
            base = self.mul_code(base, base)
            e >>= 1
        return result

    def code_order(self, a: int) -> int:
        """Multiplicative order of a nonzero code."""
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        n = self.q - 1
        order = n
        for r in _prime_factors(n):
            while order % r == 0 and self._pow_direct(a, order // r) == 1:
                order //= r
        return order

    def primitive_code(self) -> int:
        for g in range(2, self.q):
            if self.code_order(g) == self.q - 1:
                return g
        # q = 2: the only unit is 1
        return 1

    # -- vectorized arithmetic on numpy arrays of codes

    def _build_explog(self):
        """exp[i] = g^i for the primitive g, and log, by doubling: exp[k:2k] = exp[:k] g^k.

        Multiplying by a constant c is F_p-linear on digit vectors, with the
        m x m matrix whose row j holds the digits of c x^j.
        """
        n = self.q - 1
        if n > VECTOR_EXPLOG_LIMIT:
            raise BudgetExceeded(f"exp/log tables not built for q={self.q}")
        g = self.primitive_code()
        powers = self.p ** np.arange(self.m, dtype=np.int64)
        digits = np.zeros((n, self.m), dtype=np.int64)
        digits[0, 0] = 1
        k = 1
        while k < n:
            gk = self._mul_direct(int(digits[k - 1] @ powers), g)
            M = np.array([self.code_to_coeffs(self._mul_direct(gk, self.p**j))
                          for j in range(self.m)], dtype=np.int64)
            block = min(k, n - k)
            digits[k : k + block] = (digits[:block] @ M) % self.p
            k += block
        exp = digits @ powers
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self._explog = (exp, log)

    def _digit_tables(self):
        if self._digits is None:
            codes = np.arange(self.q, dtype=np.int64)
            digs = np.empty((self.q, self.m), dtype=np.int64)
            for i in range(self.m):
                digs[:, i] = codes % self.p
                codes = codes // self.p
            self._digits = digs
            self._powers = self.p ** np.arange(self.m, dtype=np.int64)
        return self._digits, self._powers

    def arith_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The q x q tables (mul, add) with mul[a, b] = a*b and add[a, b] = a+b."""
        if self._tables is None:
            if self.q > 2**8:  # the two tables stay at most 1 MB
                raise BudgetExceeded(f"arithmetic tables not built for q={self.q}")
            codes = np.arange(self.q, dtype=np.int64)
            self._tables = (self.vec_mul(codes[:, None], codes[None, :]),
                            self.vec_add(codes[:, None], codes[None, :]))
        return self._tables

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (a + b) % self.p
        digs, powers = self._digit_tables()
        return ((digs[a] + digs[b]) % self.p) @ powers

    def vec_neg(self, a: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (-a) % self.p
        digs, powers = self._digit_tables()
        return ((-digs[a]) % self.p) @ powers

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (a * b) % self.p
        if self._explog is None:
            self._build_explog()
        exp, log = self._explog
        a = np.asarray(a)
        b = np.asarray(b)
        out = exp[(log[a] + log[b]) % (self.q - 1)]
        mask = (a == 0) | (b == 0)
        if mask.any():
            out = np.where(mask, 0, out)
        return out

    def vec_inv(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if (a == 0).any():
            raise DivisionByZero("inverse of zero")
        if self._explog is None:
            self._build_explog()
        exp, log = self._explog
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]


class FieldElement:
    """One element of a FieldSpec; immutable, hashable."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.code_to_coeffs(self.code)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise SpecMismatch("elements from different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.spec, other % self.spec.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_code(self.code, other.code))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_code(self.code))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_code(self.code, other.code))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_code(self.code, other.code))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_code(self.code))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_code(self.code, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.spec.p
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.m, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.spec.m == 1:
            return f"F{self.spec.p}({self.code})"
        return f"F{self.spec.p}^{self.spec.m}({poly_str(self.coeffs)})"


def field_make(p: int, m: int = 1) -> FieldSpec:
    """Construct F_{p^m}.

    The modulus is the monic irreducible of degree m whose packed coefficient
    code (constant term least significant) is smallest; for m = 1 it is x.
    """
    if not isinstance(p, int) or not isinstance(m, int):
        raise BadRange("p and m must be integers")
    if p > PRIME_BUDGET:
        raise BudgetExceeded(f"prime {p} exceeds 2^31 trial-division budget")
    if p < 2 or not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if m < 1:
        raise BadRange("m must be >= 1")
    if p**m > ORDER_BUDGET:
        raise BudgetExceeded(f"field order {p}^{m} exceeds 2^20")
    fp = _prime_field(p)
    if m == 1:
        return fp
    for f in _monic_polys(fp, m):
        if poly_is_irreducible(fp, f):
            return FieldSpec(p, m, f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _prime_field(p: int) -> FieldSpec:
    """F_p, shared: the coefficient field of every F_{p^m}."""
    return FieldSpec(p, 1, (0, 1))


def field_arith(a: FieldElement, b, op: str) -> FieldElement:
    """Apply one of {add, mul, inv, pow} to field elements.

    inv ignores b; pow takes an integer exponent b.
    """
    if not isinstance(a, FieldElement):
        raise SpecMismatch("first operand must be a FieldElement")
    if op == "add":
        return a + a._coerce(b)
    if op == "mul":
        return a * a._coerce(b)
    if op == "inv":
        return a.inverse()
    if op == "pow":
        if not isinstance(b, int):
            raise BadRange("pow exponent must be an integer")
        return a**b
    raise BadRange(f"unknown op {op!r}")


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^m with p prime, or raise NonPrime."""
    if not isinstance(q, int) or q < 2:
        raise NonPrime(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NonPrime(f"{q} is not a prime power")
    return p, m


def field_make_q(q: int) -> FieldSpec:
    """Construct F_q from a prime power written multiplicatively."""
    return field_make(*split_prime_power(q))


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials with coefficients in a FieldSpec (tuples of codes, index = degree)


def poly_trim(f) -> tuple[int, ...]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_add(spec: FieldSpec, f, g) -> tuple[int, ...]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = spec.add_code(out[i], c)
    return poly_trim(out)

def poly_neg(spec: FieldSpec, f) -> tuple[int, ...]:
    return tuple(spec.neg_code(c) for c in f)


def poly_sub(spec: FieldSpec, f, g) -> tuple[int, ...]:
    return poly_add(spec, f, poly_neg(spec, g))


def poly_mul(spec: FieldSpec, f, g) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = spec.add_code(out[i + j], spec.mul_code(a, b))
    return poly_trim(out)


def poly_divmod(spec: FieldSpec, f, g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    g = poly_trim(g)
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(poly_trim(f))
    dg = len(g) - 1
    ginv = spec.inv_code(g[-1])
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        coef = spec.mul_code(f[-1], ginv)
        q[shift] = coef
        neg = spec.neg_code(coef)
        for i, gv in enumerate(g):
            if gv:
                f[shift + i] = spec.add_code(f[shift + i], spec.mul_code(neg, gv))
        while f and f[-1] == 0:
            f.pop()
    return poly_trim(q), poly_trim(f)


def poly_mod(spec: FieldSpec, f, g):
    return poly_divmod(spec, f, g)[1]


def poly_pow_mod(spec: FieldSpec, f, e: int, mod) -> tuple[int, ...]:
    """f^e mod `mod` for e >= 0, by square-and-multiply."""
    result = poly_mod(spec, (1,), mod)
    base = poly_mod(spec, f, mod)
    while e:
        if e & 1:
            result = poly_mod(spec, poly_mul(spec, result, base), mod)
        base = poly_mod(spec, poly_mul(spec, base, base), mod)
        e >>= 1
    return result


def poly_gcd(spec: FieldSpec, f, g) -> tuple[int, ...]:
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_mod(spec, f, g)
    return poly_monic(spec, f)


def poly_derivative(spec: FieldSpec, f) -> tuple[int, ...]:
    out = []
    for i in range(1, len(f)):
        scalar = i % spec.p
        out.append(spec.mul_code(scalar, f[i]) if scalar else 0)
    return poly_trim(out)


def poly_is_squarefree(spec: FieldSpec, f) -> bool:
    f = poly_trim(f)
    if len(f) - 1 <= 1:
        return True
    g = poly_gcd(spec, f, poly_derivative(spec, f))
    return len(g) - 1 == 0


def poly_eval(spec: FieldSpec, f, x: int) -> int:
    acc = 0
    for c in reversed(poly_trim(f)):
        acc = spec.add_code(spec.mul_code(acc, x), c)
    return acc


def poly_monic(spec: FieldSpec, f) -> tuple[int, ...]:
    f = poly_trim(f)
    if not f or f[-1] == 1:
        return f
    inv = spec.inv_code(f[-1])
    return tuple(spec.mul_code(c, inv) for c in f)


def _monic_polys(spec: FieldSpec, degree: int):
    """Monic polynomials of the given degree in ascending packed-code order."""
    for code in range(spec.q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % spec.q)
            c //= spec.q
        yield tuple(coeffs) + (1,)


def poly_factor(spec: FieldSpec, f) -> list[tuple[tuple[int, ...], int]]:
    """Factor f into monic irreducibles by trial division.

    Returns (factor, multiplicity) pairs sorted by (degree, packed code).
    A minimal-degree monic divisor is automatically irreducible, so trial
    division in ascending order needs no separate irreducibility test.
    """
    f = poly_monic(spec, f)
    if len(f) - 1 < 1:
        return []
    factors: dict[tuple[int, ...], int] = {}
    d = 1
    while len(f) - 1 > 0:
        if d > (len(f) - 1) // 2:
            factors[f] = factors.get(f, 0) + 1
            break
        found = False
        for g in _monic_polys(spec, d):
            q, r = poly_divmod(spec, f, g)
            if not r:
                factors[g] = factors.get(g, 0) + 1
                f = q
                found = True
                break
        if not found:
            d += 1

    def packed(g):
        code = 0
        for c in reversed(g[:-1]):
            code = code * spec.q + c
        return code

    return sorted(factors.items(), key=lambda kv: (len(kv[0]) - 1, packed(kv[0])))


def poly_is_irreducible(spec: FieldSpec, f) -> bool:
    """Whether f is irreducible over F_q, by the gcd test.

    A monic f of degree m is irreducible iff gcd(f, x^(q^i) - x) = 1 for
    every i <= m/2; the i-th gcd picks up every factor of degree dividing i.
    """
    f = poly_monic(spec, f)
    m = len(f) - 1
    if m <= 0:
        return False
    x = (0, 1)
    t = x
    for _ in range(m // 2):
        t = poly_pow_mod(spec, t, spec.q, f)
        if len(poly_gcd(spec, f, poly_sub(spec, t, x))) > 1:
            return False
    return True


def poly_str(f, var: str = "x") -> str:
    f = poly_trim(f)
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            parts.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return " + ".join(parts)
