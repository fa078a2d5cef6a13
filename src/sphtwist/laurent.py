"""Integer Laurent polynomials in one variable q, and a matrix-vector product."""


class LaurentPoly:
    """An integer Laurent polynomial, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[e] = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q(cls, exponent=1, coeff=1):
        return cls({exponent: coeff})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        _add_product(out, self.coeffs, _coerce(other).coeffs)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __call__(self, value):
        """Evaluate at an integer or rational value of q."""
        total = 0
        for e, c in self.coeffs.items():
            total += c * value**e
        return total

    def substitute_inverse(self):
        """q -> q^{-1}."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def to_pairs(self):
        """Serialize as a sorted list of (exponent, coefficient) pairs."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("%d*q" % c if c != 1 else "q")
            else:
                parts.append("%d*q^%d" % (c, e) if c != 1 else "q^%d" % e)
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    raise TypeError("cannot coerce %r to a Laurent polynomial" % (x,))


def _add_product(acc, a, b):
    """acc += a * b on {exponent: coefficient} dicts, dropping zero terms."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]


def laurent_mat_vec(A, v):
    return [
        sum((A[i][j] * v[j] for j in range(len(v))), LaurentPoly.zero())
        for i in range(len(A))
    ]
