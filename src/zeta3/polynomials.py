"""Dense integer polynomials in one variable u, with exact arithmetic only.

Coefficients are arbitrary-precision Python ints, index = degree, no trailing
zeros.  Everything here is exact; no floats enter this module.  The public
constructor checks that every coefficient is an int; the polynomials this
module computes from ints it already holds skip that check (``_poly``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ExactArithmeticError


def _poly(coeffs):
    """IntPoly from a sequence of ints, trailing zeros dropped, no type check."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    p = object.__new__(IntPoly)
    p.coeffs = tuple(coeffs[:n] if n < len(coeffs) else coeffs)
    return p


class IntPoly:
    """Integer polynomial; ``coeffs[i]`` is the coefficient of u**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _poly(())

    @staticmethod
    def one():
        return _poly((1,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def cf(self, k):
        """Coefficient of u**k (0 beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, int):
            other = _poly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*u")
            else:
                terms.append(f"{c}*u^{i}")
        return "IntPoly(" + " + ".join(terms) + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = _poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = _poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        # skip the zeros of both factors, most of the coefficients of a
        # polynomial in u^3 such as the paper's determinants
        terms = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in terms:
                    out[i + j] += ai * bj
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- calculus and substitution -----------------------------------------

    def derivative(self):
        return _poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def substitute_square(self):
        """Return p(u**2)."""
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return _poly(out)

    def deflation(self):
        """(g, e) with p(u) = g(u**e), e the gcd of the exponents of p's
        nonzero terms (1 for a constant).

        For g(0) != 0 each zero w of g of multiplicity mu gives e zeros u of
        p of multiplicity mu, all of modulus |w|**(1/e).
        """
        e = math.gcd(*(i for i, c in enumerate(self.coeffs) if c)) or 1
        return _poly(self.coeffs[::e]), e

    def graeffe(self):
        """The polynomial g with g(u**2) = p(u) p(-u): its zeros are the squares
        of p's zeros, with multiplicity, and its degree is p's.

        With p(u) = e(u**2) + u o(u**2), g(w) = e(w)**2 - w o(w)**2.
        """
        even = _poly(self.coeffs[0::2])
        odd = _poly(self.coeffs[1::2])
        return even * even - _poly((0,) + (odd * odd).coeffs)

    def reversed(self):
        """u**degree * p(1/u) for p(0) != 0: the zeros are the inverses of p's."""
        return _poly(self.coeffs[::-1])

    def strip_root(self, root):
        """(p / (u - root)**k, k) for the largest such k, p nonzero.

        Repeated synthetic division by u - root: the running sums
        r_j = c_j + root * r_(j+1) from the top coefficient down are the
        quotient's coefficients, and the last one, p(root), is the remainder.
        """
        coeffs, k = self.coeffs, 0
        while len(coeffs) > 1:
            sums = list(accumulate(reversed(coeffs), lambda acc, c: c + root * acc))
            if sums[-1]:
                break
            coeffs = sums[-2::-1]
            k += 1
        return _poly(coeffs), k

    def dilate(self, c):
        """c**degree * p(u / c) for a nonzero int c: the zeros are c times p's.

        One running power of c, from the top coefficient down."""
        if not isinstance(c, int):
            raise TypeError(f"integer scale required, got {type(c).__name__}")
        out, power = list(self.coeffs), 1
        for j in range(len(out) - 1, -1, -1):
            out[j] *= power
            power *= c
        return _poly(out)

    # -- division ----------------------------------------------------------

    def divmod_exact_steps(self, divisor):
        """Long division; quotient steps must stay integral, else raises."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlc = divisor.leading
        dd = divisor.degree
        q = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            top = rem[k + dd]
            if top == 0:
                continue
            if top % dlc != 0:
                raise ExactArithmeticError(
                    f"inexact polynomial division at u^{k + dd}: {top} not divisible by {dlc}"
                )
            f = top // dlc
            q[k] = f
            rem[k : k + dd + 1] = [r - f * c for r, c in zip(rem[k : k + dd + 1], divisor.coeffs)]
        return _poly(q), _poly(rem)

    def exact_divide(self, divisor):
        """Return self / divisor, raising ExactArithmeticError on any remainder."""
        quot, rem = self.divmod_exact_steps(divisor)
        if not rem.is_zero():
            raise ExactArithmeticError(f"nonzero remainder of degree {rem.degree} in exact division")
        return quot

    def divides(self, other):
        """True when self divides other exactly over the integers."""
        try:
            other.exact_divide(self)
            return True
        except ExactArithmeticError:
            return False

    # -- truncated power series --------------------------------------------

    def series_inverse(self, order):
        """Coefficients 0..order of 1/self as a power series; needs self(0) = +-1."""
        if self.cf(0) not in (1, -1):
            raise ExactArithmeticError("series inverse needs constant term +-1")
        c0 = self.cf(0)
        inv = [c0] + [0] * order
        for k in range(1, order + 1):
            s = 0
            for j in range(1, min(k, self.degree) + 1):
                s += self.cf(j) * inv[k - j]
            inv[k] = -c0 * s
        return inv

    def log_derivative_series(self, order):
        """Coefficients 1..order of u * self'/self as a power series (index 0 unused).

        For self = prod(1 - r_i u) the result is out[m] = -sum_i r_i**m.
        """
        inv = self.series_inverse(order)
        der = self.derivative()
        out = [0] * (order + 1)
        for m in range(1, order + 1):
            s = 0
            for j in range(0, min(m - 1, der.degree) + 1):
                s += der.cf(j) * inv[m - 1 - j]
            out[m] = s
        return out

    # -- serialization -----------------------------------------------------

    def to_list(self):
        """Coefficient list, lowest degree first."""
        return list(self.coeffs)


# -- content, gcd, square-free structure ------------------------------------


def content(p: IntPoly):
    """GCD of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def primitive_part(p: IntPoly):
    """p divided by its content, sign-normalized to a positive leading coefficient."""
    if p.is_zero():
        return p
    g = content(p)
    if p.leading < 0:
        g = -g
    return p if g == 1 else _poly([c // g for c in p.coeffs])


def _residues(coeffs, p):
    """Coefficients reduced mod p as an int64 array, trailing zeros dropped."""
    return _trim(np.array([c % p for c in coeffs], dtype=np.int64))


def _trim(x):
    n = x.size
    while n and not x[n - 1]:
        n -= 1
    return x[:n]


# Inputs with at least this many coefficients take the numpy kernel.  Below
# it numpy's per-call overhead outweighs the row operation: on random inputs
# (x86-64 Xeon, CPython 3.11, numpy 2.4) the two kernels cost the same at
# ~32 coefficients, the int kernel half as much at 8 and the numpy kernel
# half as much at 96.
_GCD_NUMPY_MIN = 32


def _gcd_mod_p(a, b, p):
    """Monic gcd of coefficient lists a, b over GF(p), as a list of ints."""
    if max(len(a), len(b)) < _GCD_NUMPY_MIN:
        return _gcd_mod_p_ints(a, b, p)
    return _gcd_mod_p_numpy(a, b, p)


def _gcd_mod_p_ints(a, b, p):
    """``_gcd_mod_p`` on Python int lists.

    The divisor is made monic, so each quotient step zeroes the top
    coefficient without computing it, and the remainder is the low part.
    """
    a, b = _trim_list([c % p for c in a]), _trim_list([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        low = [c * inv % p for c in b[:-1]]
        nb = len(b)
        for k in range(len(a) - nb, -1, -1):
            f = a[k + nb - 1]
            if f:
                a[k : k + nb - 1] = [(x - f * y) % p for x, y in zip(a[k : k + nb - 1], low)]
        a, b = low + [1], _trim_list(a[: nb - 1])
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _trim_list(x):
    while x and not x[-1]:
        x.pop()
    return x


def _gcd_mod_p_numpy(a, b, p):
    """``_gcd_mod_p`` by vectorised row operations.

    Residues stay below PRIME_CAP, so each product fits an int64, and every
    quotient step is one vectorised row operation.
    """
    a, b = _residues(a, p), _residues(b, p)
    while b.size:
        b = b * pow(int(b[-1]), -1, p) % p
        nb = b.size
        for k in range(a.size - nb, -1, -1):
            f = int(a[k + nb - 1])
            if f:
                a[k : k + nb] = (a[k : k + nb] - f * b) % p
        a, b = b, _trim(a[: nb - 1])
    if not a.size:
        return []
    return (a * pow(int(a[-1]), -1, p) % p).tolist()


def _is_probable_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Primes stay below 2**25 so that a length-n int64 dot product of residues
# cannot overflow: n * (2**25)**2 < 2**63 for n up to 8192.
PRIME_CAP = (1 << 25) - 1


# limit -> the odd primes below limit found so far, descending; ``_odd_primes``
# extends each table on demand, so a stream under a lower limit need not first
# find every prime above it
_PRIME_TABLES = {}


def _odd_primes(limit, skip=0):
    """Yield the odd primes below ``limit``, descending, from its table in
    ``_PRIME_TABLES``, past the first ``skip`` of them."""
    table = _PRIME_TABLES.setdefault(limit, [])
    t = skip
    while True:
        if t == len(table):
            start = table[-1] - 2 if table else (limit - 2) | 1
            p = next((n for n in range(start, 2, -2) if _is_probable_prime(n)), None)
            if p is None:
                return
            table.append(p)
        yield table[t]
        t += 1


def _root_of_order(k, p):
    """The first w = a**((p - 1)/k) mod p, a = 2, 3, ..., of exact
    multiplicative order k in GF(p), p = 1 (mod k)."""
    candidates = (pow(a, (p - 1) // k, p) for a in range(2, p))
    return next(w for w in candidates if all(pow(w, d, p) != 1 for d in range(1, k) if k % d == 0))


class _RootTable:
    """The pairs (p, w) of one ``primes_with_root(k, limit)`` stream found so
    far, and how many odd primes below ``limit`` the search has passed."""

    __slots__ = ("pairs", "scanned")

    def __init__(self):
        self.pairs = []
        self.scanned = 0


# (k, limit) -> its ``_RootTable``; ``primes_with_root`` extends each on
# demand, so the search for w runs once per prime and process
_ROOT_TABLES = {}


def primes_with_root(k, limit=PRIME_CAP):
    """Yield (p, w) for the primes p = 1 (mod k) below ``limit`` (at most
    PRIME_CAP), descending, with w an element of exact multiplicative order k
    in GF(p) (``_root_of_order``).

    k = 1 yields every odd prime below ``limit``, each with w = 1.  The pairs
    come from a table per (k, limit) in ``_ROOT_TABLES``, extended one pair at
    a time as a stream reads past its end.
    """
    table = _ROOT_TABLES.setdefault((k, limit), _RootTable())
    t = 0
    while True:
        if t == len(table.pairs):
            for p in _odd_primes(limit, table.scanned):
                table.scanned += 1
                if (p - 1) % k == 0:
                    table.pairs.append((p, _root_of_order(k, p)))
                    break
            else:
                return
        yield table.pairs[t]
        t += 1


class _GarnerTable(NamedTuple):
    """The constants of Garner's algorithm for primes (p_0, p_1, .., p_k)
    (``crt_symmetric``): p_1 .. p_k as an int64 column, c_i = N_i**-1 mod
    p_i and G[i, j] = N_j c_i mod p_i (j < i) as int64 arrays, N_i = p_0 p_1
    .. p_(i-1); the weights N_(2t+1) of the digit pairs as Python ints; and
    the modulus N_(k+1)."""

    p: np.ndarray
    c: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    modulus: int


@lru_cache(maxsize=64)
def _garner_table(moduli):
    primes = moduli[1:]
    scale = list(accumulate(moduli[:-1], lambda n, p: n * p))
    c = [pow(n, -1, p) for n, p in zip(scale, primes)]
    g = np.zeros((len(primes),) * 2, dtype=np.int64)
    for i in range(1, len(primes)):
        g[i, :i] = [n * c[i] % primes[i] for n in scale[:i]]
    p, c = np.array([primes, c], dtype=np.int64)[:, :, None]
    return _GarnerTable(p, c, g, np.array(scale[::2], dtype=object), scale[-1] * primes[-1])


def crt_symmetric(rows, primes):
    """Combine per-prime coefficient vectors into symmetric-range integers.

    Row i holds residues in [0, p_i) modulo ``primes[i]``, a prime below
    2**25, as int64 or Python ints.

    Garner's algorithm: x = r_0 + N_1 d_1 + .. + N_k d_k, N_i the product of
    the primes before p_i, and the digit d_i = (x - r_0 - N_1 d_1 - .. -
    N_(i-1) d_(i-1)) / N_i mod p_i in [0, p_i).  The digits are taken in
    int64 on whole coefficient vectors at once, one prime after the other:
    every product is of two residues below 2**25, and a digit sums fewer
    than 2**13 of them.  Each pair d_i + p_i d_(i+1) is below 2**50, and one
    object-array product of the pairs with their weights N_i carries them
    into Python ints; the constants are memoised per tuple of primes
    (``_garner_table``).  Every coefficient is then taken to the symmetric
    range: above half the modulus, it loses the modulus.
    """
    if len(primes) == 1:
        modulus = primes[0]
        value = map(int, rows[0])
    else:
        head = np.asarray(rows[0], dtype=np.int64)
        table = _garner_table(tuple(primes))
        modulus = table.modulus
        # digits[i] = (r_i - r_0) c_i mod p_i, less the earlier digits' share
        digits = (np.asarray(rows[1:], dtype=np.int64) - head) * table.c % table.p
        for i in range(1, len(digits)):
            digits[i] -= table.g[i, :i] @ digits[:i]
            digits[i] %= table.p[i]
        pairs = digits[::2].copy()
        pairs[: len(digits) // 2] += table.p[: len(digits) - 1 : 2] * digits[1::2]
        value = (table.weights @ pairs.astype(object) + head).tolist()
    half = modulus // 2
    return [c - modulus if c > half else c for c in value]


def gcd_polys(f: IntPoly, g: IntPoly):
    """Primitive gcd over the integers, with a positive leading coefficient.

    Modular images with a division check (``_gcd_cofactors``): the candidate
    reconstructed by CRT is only accepted once it divides both inputs
    exactly, so unlucky primes cannot produce a wrong answer.  The quotients
    of that check are the cofactors f / G and g / G; this drops them, and
    ``squarefree_decomposition`` keeps them.
    """
    return _gcd_cofactors(f, g)[0]


def _gcd_cofactors(f: IntPoly, g: IntPoly):
    """(G, f / G, g / G) with G = ``gcd_polys(f, g)``.

    The cofactors keep the content and sign of f and g, so G * (f / G) == f
    and G * (g / G) == g; G, and both cofactors, are 0 only for f = g = 0.
    The cofactors are the quotients of the division check that accepts G,
    so they cost no division of their own.
    """
    if f.is_zero() or g.is_zero():
        gcd = primitive_part(g if f.is_zero() else f)
        if gcd.is_zero():
            return gcd, f, g
        return gcd, f.exact_divide(gcd), g.exact_divide(gcd)
    fp, gp = primitive_part(f), primitive_part(g)
    one = IntPoly.one()
    if fp.degree == 0 or gp.degree == 0:
        return one, f, g
    lc_gcd = math.gcd(fp.leading, gp.leading)

    best_deg = None  # the images at this degree and their primes
    for p, _w in primes_with_root(1):
        if fp.leading % p == 0 or gp.leading % p == 0:
            continue
        gcd_p = _gcd_mod_p(fp.coeffs, gp.coeffs, p)
        d = len(gcd_p) - 1
        if d == 0:
            return one, f, g
        if best_deg is not None and d > best_deg:
            continue
        image = [c * lc_gcd % p for c in gcd_p]
        if best_deg is None or d < best_deg:  # the earlier primes were unlucky
            best_deg, images, moduli = d, [], []
        images.append(image)
        moduli.append(p)
        cand = primitive_part(_poly(crt_symmetric(images, moduli)))
        if cand.is_zero():
            continue
        try:
            return cand, f.exact_divide(cand), g.exact_divide(cand)
        except ExactArithmeticError:
            continue
    raise ExactArithmeticError("modular gcd failed to stabilize")  # pragma: no cover


def squarefree_decomposition(f: IntPoly):
    """Yun decomposition: list of (factor, multiplicity) with square-free factors.

    Constant content is dropped; the product of factor**multiplicity equals f
    up to an integer constant, which is all the root-finding callers need.
    Each step takes a gcd with its cofactors (``_gcd_cofactors``), which are
    the next step's inputs, so no step divides again.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = primitive_part(f)
    if f.degree == 0:
        return []
    g, w, y = _gcd_cofactors(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    out = []
    i = 1
    while w.degree > 0:
        a, w, y = _gcd_cofactors(w, y - w.derivative())
        if a.degree > 0:
            out.append((a, i))
        i += 1
    return out


# -- real and unit-circle root counts ------------------------------------------


def _pseudo_remainder(a: IntPoly, b: IntPoly):
    """(r, e) with lc(b)**e * a = quotient * b + r and deg r < deg b.

    The remainder is scaled by lc(b) only when a quotient step would not
    divide exactly, so e counts the scalings actually taken and can be less
    than deg a - deg b + 1.
    """
    rem = list(a.coeffs)
    lc, db = b.leading, b.degree
    scalings = 0
    for k in range(len(rem) - 1, db - 1, -1):
        top = rem[k]
        if top == 0:
            continue
        if top % lc:
            rem = [c * lc for c in rem[: k + 1]]
            scalings += 1
            top = rem[k]
        f = top // lc
        rem[k - db : k + 1] = [r - f * c for r, c in zip(rem[k - db : k + 1], b.coeffs)]
    return _poly(rem[:db]), scalings


def _sturm_sequence(p: IntPoly):
    """p, p', then negated remainders, each divided by its positive content.

    The true remainder is the pseudo-remainder over lc**e, so its sign is
    the pseudo-remainder's times sign(lc)**e.  The last entry is a nonzero
    multiple of gcd(p, p').
    """
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        rem, scalings = _pseudo_remainder(seq[-2], seq[-1])
        if rem.is_zero():
            break
        if seq[-1].leading < 0 and scalings % 2:
            rem = -rem
        g = content(rem)
        seq.append(_poly([-c // g for c in rem.coeffs]))
    return seq


def _sign_changes(seq, x):
    signs = [v > 0 for v in (s(x) for s in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_root_count(p: IntPoly, lo, hi):
    """The number of distinct real roots of p in the open interval (lo, hi).

    Sturm's theorem on a sequence of primitive pseudo-remainders; lo and hi
    are ints or Fractions, so every sign is exact.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree < 1 or lo >= hi:
        return 0
    seq = _sturm_sequence(p)
    if seq[-1].degree > 0:  # repeated roots: count on the square-free part
        p = primitive_part(p).exact_divide(primitive_part(seq[-1]))
        seq = _sturm_sequence(p)
    # V(lo) - V(hi) counts the roots in (lo, hi]
    return _sign_changes(seq, lo) - _sign_changes(seq, hi) - (p(hi) == 0)


def _chebyshev_reduced(s: IntPoly):
    """R with s(v) = v**n R(v + 1/v), for s self-reciprocal of degree 2n.

    v**-n s(v) = s_n + sum_j s_(n+j) (v**j + v**-j), and v**j + v**-j is
    D_j(v + 1/v) with D_0 = 2, D_1 = x, D_j = x D_(j-1) - D_(j-2).
    """
    n = s.degree // 2
    x = IntPoly([0, 1])
    acc = IntPoly([s.cf(n)])
    prev, cur = IntPoly([2]), x
    for j in range(1, n + 1):
        acc = acc + cur * s.cf(n + j)
        prev, cur = cur, x * cur - prev
    return acc


def unit_circle_root_count(p: IntPoly):
    """The number of zeros of p on |v| = 1, with multiplicity.

    Zeros on the circle are shared with the reversed polynomial, at equal
    multiplicity, so they all lie in G = gcd(p, p reversed).  G loses its
    zeros v = +-1, counted with multiplicity by repeated synthetic division.
    The rest is closed under v -> 1/v, so it is v**n R(v + 1/v), and its
    circle zeros pair up over the real roots of R in (-2, 2), at the same
    multiplicity; the zeros off the circle that G keeps map outside that
    interval or off the real line.  Sturm's theorem counts the distinct
    real roots of R in (-2, 2), and the chain's last element is
    gcd(R, R'), which holds every multiple root once less often: counting
    again on it while its degree is positive adds up the multiplicities.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    low = next(i for i, c in enumerate(p.coeffs) if c)
    p = _poly(p.coeffs[low:])  # zeros at 0 are off the circle
    rest, at_one = gcd_polys(p, p.reversed()).strip_root(1)
    rest, at_minus_one = rest.strip_root(-1)
    total = at_one + at_minus_one
    if rest.reversed() != rest:
        raise ExactArithmeticError("gcd(p, p reversed) without its zeros +-1 is not self-reciprocal")
    r = _chebyshev_reduced(rest)
    while r.degree > 0:  # R(+-2) = rest(+-1) != 0, so +-2 are never roots
        seq = _sturm_sequence(r)
        total += 2 * (_sign_changes(seq, -2) - _sign_changes(seq, 2))
        r = seq[-1]
    return total
