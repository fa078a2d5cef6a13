"""The graded endomorphism algebra of an A_n-chain of N-spherical objects.

The algebra is a zigzag-type path algebra on the A_n quiver with vertices
1..n.  Its basis consists of idempotents e_i (degree 0), forward arrows
a_{i,i+1} (degree d_i), backward arrows a_{i+1,i} (degree N - d_i) and loops
l_i (degree N).  Relations: two-step paths that do not return to their start
vanish, both round trips at a vertex equal the loop there, and loops kill
everything except the idempotents.

Composition is read left to right: ``x * y`` means "first x, then y", so a
path i -> j composed with j -> k lands in ``e_i A e_k``.  Projectives are the
column modules P_i = A e_i and Hom(P_i, P_j) = e_i A e_j acts by right
multiplication, which makes differentials of complexes literal matrices over
the algebra.
"""

from operator import attrgetter

from .fields import Field
from .linalg import _add


class _Record:
    """Base of the API's result records: ``==`` and a dataclass-style repr
    over the fields named in ``__match_args__``.

    A record equals only a record of its own class with equal fields, and
    it is unhashable unless frozen.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "__match_args__"):  # not the two bases
            # one C-level getter per class: a getattr loop made == several
            # times slower; for one field it gives the bare value
            cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))


class _FrozenRecord(_Record):
    """A record whose ``__init__`` sets its fields once, through
    ``__dict__``: hashed by its fields, and assignment or deletion raises
    AttributeError."""

    def __eq__(self, other):
        # __dict__ holds the fields and nothing else, so comparing it is
        # comparing them, at half the cost of the two getter calls
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __hash__(self):
        return hash(self._values(self))


class ChainParams(_FrozenRecord):
    """Shape of the chain: length n, spherical dimension N, edge degrees.

    ``edge_degrees[i-1]`` is the internal degree of the forward arrow
    i -> i+1; the backward arrow gets the complementary degree N - d_i.
    A chain of n objects carries n twist generators (braid group B_{n+1}).

    Frozen: equal and hashed by its fields, and assignment raises
    AttributeError.
    """

    __match_args__ = ("n", "N", "edge_degrees")

    def __init__(self, n, N, edge_degrees=None):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("chain length must be an integer, got n=%r" % (n,))
        if n < 1:
            raise ValueError("need at least one chain object, got n=%r" % (n,))
        if isinstance(N, bool) or not isinstance(N, int):
            raise ValueError("spherical dimension must be an integer, got N=%r" % (N,))
        if N < 2:
            raise ValueError("spherical dimension must be >= 2, got N=%r" % (N,))
        if edge_degrees is None:
            degs = tuple(1 for _ in range(n - 1))
        else:
            try:
                degs = tuple(edge_degrees)
            except TypeError:
                raise ValueError("edge degrees must be a sequence of integers, "
                                 "got %r" % (edge_degrees,)) from None
        if len(degs) != n - 1:
            raise ValueError(
                "expected %d edge degrees, got %d" % (n - 1, len(degs))
            )
        for d in degs:
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError("edge degree %r is not an integer" % (d,))
            if not 1 <= d <= N - 1:
                raise ValueError("edge degree %r outside [1, %d]" % (d, N - 1))
        self.__dict__.update(n=n, N=N, edge_degrees=degs)


class AlgebraElement:
    """A linear combination of basis paths, with exact coefficients."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs=None):
        self.algebra = algebra
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    self.coeffs[k] = c

    def is_zero(self):
        return not self.coeffs

    def coeff(self, key):
        return self.coeffs.get(key, self.algebra.field.zero)

    def degree(self):
        """Internal degree if homogeneous and nonzero, else None."""
        degs = {self.algebra.deg[k] for k in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def _check_same(self, other):
        if other.algebra != self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check_same(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            _add(coeffs, k, c, 0)
        return AlgebraElement(self.algebra, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            table = self.algebra.table
            coeffs = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    k = table.get((k1, k2))
                    if k is not None:
                        _add(coeffs, k, c1 * c2, 0)
            return AlgebraElement(self.algebra, coeffs)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.algebra.field.of(c)
        if not c:
            return AlgebraElement(self.algebra)
        return AlgebraElement(self.algebra, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, key=self.algebra.basis.index):
            parts.append("%s*%s" % (self.coeffs[k], key_str(k)))
        return " + ".join(parts)


def key_str(key):
    """Readable name of a basis path: e1, a12, l3 (colon form for n >= 10)."""
    kind = key[0]
    if kind == "a":
        i, j = key[1], key[2]
        if i < 10 and j < 10:
            return "a%d%d" % (i, j)
        return "a%d:%d" % (i, j)
    return "%s%d" % (kind, key[1])


class ZigzagAlgebra:
    """The chain algebra with its basis, grading and multiplication table.

    Immutable after construction; safe to share across threads.  Two
    algebra objects with equal params and field are one algebra: they
    compare and hash equal, and their elements and complexes mix.
    """

    def __init__(self, params, char=None):
        if not isinstance(params, ChainParams):
            params = ChainParams(*params)
        self.params = params
        self.field = Field(char)
        n, N = params.n, params.N

        basis = [("e", i) for i in range(1, n + 1)]
        for i in range(1, n):
            basis.append(("a", i, i + 1))
            basis.append(("a", i + 1, i))
        basis.extend(("l", i) for i in range(1, n + 1))
        self.basis = basis

        deg = {}
        src = {}
        tgt = {}
        for key in basis:
            kind = key[0]
            if kind == "e":
                deg[key] = 0
                src[key] = tgt[key] = key[1]
            elif kind == "l":
                deg[key] = N
                src[key] = tgt[key] = key[1]
            else:
                i, j = key[1], key[2]
                d = params.edge_degrees[min(i, j) - 1]
                deg[key] = d if j == i + 1 else N - d
                src[key] = i
                tgt[key] = j
        self.deg = deg
        self.src = src
        self.tgt = tgt
        # e_i A e_j holds at most one basis path of each degree (N >= 2 and
        # every arrow degree lies in 1..N-1), so (i, j, degree) names it
        self.path = {(src[key], tgt[key], deg[key]): key for key in basis}

        # Products of basis paths are single basis paths or zero.  The
        # nonzero ones: an idempotent on either side of a path, and the two
        # round trips i -> j -> i, which give the loop at i; straight-through
        # paths vanish and loops annihilate arrows and loops.
        table = {}
        for key in basis:
            table[(("e", src[key]), key)] = key
            table[(key, ("e", tgt[key]))] = key
            if key[0] == "a":
                table[(key, ("a", key[2], key[1]))] = ("l", key[1])
        self.table = table

        self._hom_basis = {}
        for i in range(1, n + 1):
            self._hom_basis[(i, i)] = (("e", i), ("l", i))
            if i < n:
                self._hom_basis[(i, i + 1)] = (("a", i, i + 1),)
                self._hom_basis[(i + 1, i)] = (("a", i + 1, i),)

    def dimension(self):
        return len(self.basis)

    # ------------------------------------------------------------------
    # element constructors

    def zero(self):
        return AlgebraElement(self)

    def from_key(self, key, c=1):
        if key not in self.deg:
            raise ValueError("unknown basis path %r" % (key,))
        return AlgebraElement(self, {key: self.field.of(c)})

    def e(self, i):
        return self.from_key(("e", i))

    def arrow(self, i, j):
        return self.from_key(("a", i, j))

    def loop(self, i):
        return self.from_key(("l", i))

    # ------------------------------------------------------------------
    # structure queries

    def check_vertex(self, i):
        if not 1 <= i <= self.params.n:
            raise ValueError("vertex %r out of range 1..%d" % (i, self.params.n))

    def hom_basis(self, i, j):
        """Basis paths of e_i A e_j (maps P_i -> P_j)."""
        paths = self._hom_basis.get((i, j))
        if paths is None:  # no path, or a vertex out of range
            self.check_vertex(i)
            self.check_vertex(j)
        return paths or ()

    def hom_space(self, i, j):
        """Graded dimension table {internal degree: dim} of e_i A e_j."""
        out = {}
        for key in self.hom_basis(i, j):
            d = self.deg[key]
            out[d] = out.get(d, 0) + 1
        return out

    def trace(self, x):
        """Frobenius trace: total coefficient of the loops.

        The induced pairing (a, b) -> trace(a*b) is perfect.
        """
        t = self.field.zero
        for i in range(1, self.params.n + 1):
            t = t + x.coeff(("l", i))
        return t

    def gram_matrix(self):
        """Matrix of trace(x*y) over the full basis."""
        elems = [self.from_key(k) for k in self.basis]
        return [[self.trace(x * y) for y in elems] for x in elems]

    def invert_local(self, x):
        """Inverse of x in e_v A e_v, for x with nonzero idempotent part.

        x = c*e_v + m*l_v with c != 0 has inverse (1/c)*e_v - (m/c^2)*l_v.
        Returns None when no such inverse exists.
        """
        verts = {self.src[k] for k in x.coeffs}
        if len(verts) != 1:
            return None
        v = verts.pop()
        if {self.tgt[k] for k in x.coeffs} != {v}:
            return None
        c = x.coeff(("e", v))
        if not c:
            return None
        m = x.coeff(("l", v))
        coeffs = {("e", v): 1 / c}
        lm = -m / (c * c)
        if lm:
            coeffs[("l", v)] = lm
        return AlgebraElement(self, coeffs)

    # ------------------------------------------------------------------
    # serialization (debugging surface for the CLI)

    def describe(self):
        table = {}
        for (x, y), z in self.table.items():
            table["%s.%s" % (key_str(x), key_str(y))] = key_str(z)
        return {
            "n": self.params.n,
            "N": self.params.N,
            "edge_degrees": list(self.params.edge_degrees),
            "field": "Q" if self.field.char is None else "F%d" % self.field.char,
            "basis": [
                {
                    "path": key_str(k),
                    "degree": self.deg[k],
                    "source": self.src[k],
                    "target": self.tgt[k],
                }
                for k in self.basis
            ],
            "products": dict(sorted(table.items())),
        }

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ZigzagAlgebra):
            return NotImplemented
        return self.params == other.params and self.field == other.field

    def __hash__(self):
        return hash((self.params, self.field))

    def __repr__(self):
        return "ZigzagAlgebra(n=%d, N=%d, d=%s)" % (
            self.params.n,
            self.params.N,
            list(self.params.edge_degrees),
        )
