"""Exact sparse Laurent polynomials in one variable t with integer coefficients."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Tuple


def _mac(acc: dict, c1: dict, c2: dict, shift: int = 0) -> dict:
    """Add the product of the sparse maps c1 and c2, times t**shift, into acc
    in place: acc[e1 + e2 + shift] += v1 * v2.  Zeros are left in acc."""
    for e1, v1 in c1.items():
        for e2, v2 in c2.items():
            e = e1 + e2 + shift
            acc[e] = acc.get(e, 0) + v1 * v2
    return acc


def _axpy(acc: dict, c: dict, sign: int = 1) -> dict:
    """Add sign * c into the sparse map acc in place, deleting every key that
    reaches 0; returns acc.  The values may be ints or IntLaurents."""
    for k, v in c.items():
        old = acc.get(k)
        v = sign * v if old is None else old + sign * v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def _signed(terms: Iterable[Tuple[int, str]]) -> str:
    """The sum of the nonzero terms (coefficient, symbol), e.g. "2W1 - W3" or
    "1 + t^2": a unit coefficient is left off a symbol, never off an empty
    one, and a negative term is subtracted; "0" for no terms."""
    out = ""
    for v, s in terms:
        p = f"{v}{s}" if not s or v not in (1, -1) else s if v == 1 else "-" + s
        out = p if not out else out + (" - " + p[1:] if p[0] == "-" else " + " + p)
    return out or "0"


class IntLaurent:
    """Integer Laurent polynomial in t, stored sparsely.

    Instances are immutable; zero coefficients are never stored, so equality
    is plain map equality.  Python integers make all arithmetic exact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._c = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def _raw(coeffs: dict[int, int]) -> "IntLaurent":
        """A polynomial on the zero-free map coeffs; unchecked, not copied."""
        p = object.__new__(IntLaurent)
        p._c = coeffs
        return p

    @staticmethod
    def zero() -> "IntLaurent":
        return IntLaurent()

    @staticmethod
    def one() -> "IntLaurent":
        return IntLaurent({0: 1})

    @staticmethod
    def term(coeff: int, texp: int = 0) -> "IntLaurent":
        return IntLaurent({texp: coeff})

    def items(self) -> list[Tuple[int, int]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._c.items())

    def coeff(self, texp: int) -> int:
        return self._c.get(texp, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, IntLaurent):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "IntLaurent") -> "IntLaurent":
        return IntLaurent._raw(_axpy(dict(self._c), other._c))

    def __neg__(self) -> "IntLaurent":
        return IntLaurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "IntLaurent") -> "IntLaurent":
        return IntLaurent._raw(_axpy(dict(self._c), other._c, -1))

    def __mul__(self, other) -> "IntLaurent":
        if isinstance(other, int):
            return IntLaurent({e: v * other for e, v in self._c.items()})
        return IntLaurent(_mac({}, self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntLaurent":
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        out = IntLaurent.one()
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, texp: int) -> "IntLaurent":
        """Multiply by t**texp."""
        return IntLaurent({e + texp: v for e, v in self._c.items()})

    def bar(self) -> "IntLaurent":
        """Substitute t -> t**-1."""
        return IntLaurent({-e: v for e, v in self._c.items()})

    def eval_at(self, t0: int) -> int:
        """Evaluate at an integer t0 != 0 (negative exponents must divide exactly)."""
        total = 0
        for e, v in self._c.items():
            if e >= 0:
                total += v * t0**e
            else:
                num, rem = divmod(v, t0 ** (-e))
                if rem:
                    raise ValueError(f"evaluation at t={t0} is not integral")
                total += num
        return total

    def __str__(self) -> str:
        return _signed((v, "" if e == 0 else "t" if e == 1 else f"t^{e}") for e, v in self.items())

    def __repr__(self) -> str:
        return f"IntLaurent({dict(self.items())!r})"


ZERO = IntLaurent.zero()
ONE = IntLaurent.one()


@lru_cache(maxsize=None)
def t_binomial(n: int, r: int) -> IntLaurent:
    """Balanced Gaussian binomial coefficient, symmetric under t <-> t**-1.

    Built from the Pascal recurrence [n,r] = t^-r [n-1,r] + t^(n-r) [n-1,r-1];
    [n,0] = [n,n] = 1, and the value is 0 outside 0 <= r <= n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if r < 0 or r > n:
        return ZERO
    if r == 0 or r == n:
        return ONE
    return t_binomial(n - 1, r).shifted(-r) + t_binomial(n - 1, r - 1).shifted(n - r)
