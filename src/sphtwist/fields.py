"""Exact scalar arithmetic: rationals (default) and prime fields.

Every computation in the engine is exact.  Scalars come in two formats.

* Public scalars, which the API takes and returns (``Field.of``, algebra
  elements, dense views, ``to_dict``): ``fractions.Fraction`` over Q and
  :class:`Fp` over F_p.  Both support ``+ - * / ==`` and truthiness.
* Engine scalars, stored in the rows of differentials, chain maps and hom
  complexes and handled by ``linalg``: plain Python ints.  Over F_p an
  engine scalar is the residue in ``[0, p)``; over Q it is an int, or a
  ``Fraction`` after a division that leaves a remainder or when the input
  was not an integer.  The engine's loops carry ``mod``, the
  characteristic or 0 over Q, reduce with ``x % mod`` when ``mod`` is
  nonzero, negate as ``mod - x`` and divide with :func:`div`.  ``raw``
  turns a public scalar into an engine scalar, and ``Field.of`` turns it
  back.
"""

from fractions import Fraction


class Fp:
    """An element of the prime field F_p, normalized to ``0 <= v < p``."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(w - self.v, self.p)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(w * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.v, self.p)


def div(a, b, mod):
    """Exact a / b of engine scalars, b nonzero: over F_p (``mod`` the
    characteristic) a residue; over Q (``mod`` 0) an int when b divides a,
    else a ``Fraction``.  Operands other than two ints use ``a / b``."""
    if mod:
        return a * pow(b, -1, mod) % mod
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def raw(x):
    """The engine scalar of a public scalar: an Fp's residue, an integral
    Fraction's int, anything else as it is."""
    if isinstance(x, Fp):
        return x.v
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Deterministic Miller-Rabin; exact for p < 2**64 with these witnesses."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Scalar field descriptor: rationals when ``char`` is None, else F_p."""

    __slots__ = ("char",)

    def __init__(self, char=None):
        if char is not None and (isinstance(char, bool) or not isinstance(char, int)
                                 or not (char < 2**64 and _is_prime(char))):
            raise ValueError("characteristic must be a prime below 2^64, got %r"
                             % (char,))
        self.char = char

    def of(self, x):
        """Coerce an integer (or exact scalar) into this field."""
        if self.char is None:
            return Fraction(x) if isinstance(x, int) else x
        if isinstance(x, Fp):
            return x
        return Fp(x, self.char)

    @property
    def zero(self):
        return self.of(0)

    @property
    def one(self):
        return self.of(1)

    def scalar_to_str(self, x):
        """Decimal form of a public or an engine scalar."""
        return str(x.v if isinstance(x, Fp) else x)

    def scalar_from_str(self, s):
        if self.char is None:
            return Fraction(s)
        return Fp(int(s), self.char)

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(self.char)

    def __repr__(self):
        return "Field(%r)" % (self.char,)
