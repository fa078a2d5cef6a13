"""Sparse exact linear algebra over the engine's scalar fields.

A matrix is a list of rows, and a row is either a dense list of scalars
or a dict ``{column: scalar}`` of its nonzero entries.  Every function
takes ``mod``.  With the characteristic p of F_p, the scalars are engine
scalars, ints in [0, p) (see ``fields``), and so are the results.  With the
default 0, they are ints or Fractions over Q, or public scalars
(``Fraction``, ``Fp``), which carry their own arithmetic.

The public functions copy their input into dict rows and hand the copy to
one forward elimination, ``_eliminate``, which reduces the rows it is given
in place (``complexes.is_isomorphic`` hands over the fresh rows of its
chain-map system without a copy).  It works in two steps.

* The peel.  A row with one entry forces its column to zero in every
  kernel vector; the column is dropped from every row, which may leave
  more rows with one entry, and so on.  On the chain-map systems (hundreds
  of thousands of unknowns, a few entries a row, chains of one-entry
  equations from the ends of the complexes) the peel settles almost every
  column, and it touches each entry once.
* The elimination of what is left.  It clears the columns left to right,
  keeps an index from each column to the rows that are nonzero there, and
  takes the sparsest of those rows as the pivot, which keeps the fill-in
  small.  Over Q, rows of engine scalars are scaled to coprime integers
  and cleared by integer combinations, so no Fraction is made before
  back-substitution or the final division of a determinant; rows of F_p
  residues and of public scalars keep their field arithmetic.

A forced column is never free, and neither the peel nor the choice of
pivot row changes the kernel, so the pivot columns and the kernel basis
(1 at its free column, 0 at the other free columns and right of its own)
are those of textbook Gaussian elimination, and so are ranks and
determinants.
"""

from heapq import heappop, heappush
from math import gcd, lcm

from .fields import div


def _rows(rows):
    """Dict copies of ``rows`` holding their nonzero entries."""
    return [{c: x for c, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
            for r in rows]


def _eliminate(rows, mod=0):
    """Forward elimination, in place, on ``rows``: a list of dict rows of
    nonzero entries that the caller hands over.

    Returns ``(pivot, echelon, num, den)``.  ``pivot`` maps the index of
    each pivot row to its column, the peeled ones first.  ``echelon`` holds
    the ``(column, row)`` pairs of the eliminated pivots in column order,
    each row zero left of its column and in every peeled column; a peeled
    row is left with its single entry.  The determinant of a square matrix
    of full rank is ``num / den`` times the product of the pivot entries
    and the sign of the permutation ``pivot``.
    """
    at = {}  # column -> the rows nonzero there
    single = []
    for i, row in enumerate(rows):
        for c in row:
            if c in at:
                at[c].append(i)
            else:
                at[c] = [i]
        if len(row) == 1:
            single.append(i)
    pivot = {}
    while single:
        i = single.pop()
        row = rows[i]
        if not row:  # emptied by an earlier peel
            continue
        col, = row
        pivot[i] = col
        for j in at.pop(col):
            if j != i:
                other = rows[j]
                del other[col]
                if len(other) == 1:
                    single.append(j)
    # every other row is now empty or has two entries or more
    live = {i: row for i, row in enumerate(rows) if len(row) > 1}
    num = den = 1
    # engine scalars over Q hold ints; public Fractions never do
    integral = not mod and any(type(x) is int for row in live.values() for x in row.values())
    for row in live.values() if integral else ():
        try:
            g = gcd(*row.values())
        except TypeError:  # engine Fractions: clear the denominators
            d = lcm(*(x.denominator for x in row.values()))
            den *= d
            for c, x in row.items():
                row[c] = int(x * d)
            g = gcd(*row.values())
        if g != 1:
            num *= g
            for c, x in row.items():
                row[c] = x // g
    echelon = []
    for col in sorted(at):
        cand = at.pop(col)
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(live[i]), i))
        prow = live.pop(p)
        pv = prow[col]
        for c in prow:
            if c != col:
                at[c].remove(p)
        for i in cand:
            if i == p:
                continue
            row = live[i]
            x = row.pop(col)
            scale = 1
            if integral:
                factor, r = divmod(x, pv)
                if r:  # row := a row - b prow with a pv = b x, a and b coprime
                    g = gcd(x, pv)
                    scale, factor = pv // g, x // g
                    den *= scale
                    for c in row:
                        row[c] *= scale
            else:
                factor = div(x, pv, mod)
            for c, x in prow.items():
                if c == col:
                    continue
                y = row.get(c, 0) - factor * x
                if mod:
                    y %= mod
                if y:
                    if c not in row:
                        at[c].append(i)
                    row[c] = y
                elif c in row:
                    del row[c]
                    at[c].remove(i)
            if scale != 1 and row:  # keep the row primitive
                g = gcd(*row.values())
                if g != 1:
                    num *= g
                    for c, x in row.items():
                        row[c] = x // g
        pivot[p] = col
        echelon.append((col, prow))
    return pivot, echelon, num, den


def mat_rank(rows, mod=0):
    """Rank of a matrix."""
    return len(_eliminate(_rows(rows), mod)[0])


def nullspace(rows, ncols, one, mod=0):
    """Basis of the right kernel of a matrix with ``ncols`` columns.

    ``rows`` may be empty (kernel is everything).  ``one`` is the unit of
    the rows' scalars (the int 1 for engine scalars), used to build the
    basis vectors.  The vector for a free column is 1 there and 0 at every
    other free column, which pins it down uniquely, and its entries right
    of the free column are 0.
    """
    zero = one - one
    return [[v.get(c, zero) for c in range(ncols)]
            for v in _kernel(_rows(rows), ncols, one, mod)]


def _kernel(rows, ncols, one, mod=0):
    """``nullspace`` of dict rows of nonzero entries, which it reduces in
    place, with each basis vector as a dict of its nonzero entries.

    A peeled column is 0 in every kernel vector.  The other pivot entries
    come from back-substitution, which visits only the pivot rows that
    meet an entry already set.
    """
    pivot, echelon, _num, _den = _eliminate(rows, mod)
    pivot_cols = set(pivot.values())
    meets = {}  # column -> pivots with an entry there besides their pivot
    for k, (col, row) in enumerate(echelon):
        for c in row:
            if c != col:
                meets.setdefault(c, []).append(k)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = {fc: one}
        queued = set(meets.get(fc, ()))
        heap = sorted(-k for k in queued)
        # a pivot's entry depends only on the columns right of its own, so
        # the pivots are solved from the last one down
        while heap:
            col, row = echelon[-heappop(heap)]
            acc = 0
            for c, x in row.items():
                if c in v and c != col:
                    acc = acc + x * v[c]
            if mod:
                acc %= mod
            if not acc:
                continue
            v[col] = div(mod - acc, row[col], mod)
            for k in meets.get(col, ()):
                if k not in queued:
                    queued.add(k)
                    heappush(heap, -k)
        basis.append(v)
    return basis


def mat_det(rows, mod=0):
    """Determinant of a square scalar matrix (returns a field scalar)."""
    n = len(rows)
    if n == 0:
        return None  # caller treats the empty matrix as invertible
    reduced = _rows(rows)
    pivot, _echelon, num, den = _eliminate(reduced, mod)
    if len(pivot) < n:
        for r in rows:  # a zero of the rows' field
            for x in r.values() if isinstance(r, dict) else r:
                return x * 0
        return 0
    product = num
    for i, col in pivot.items():
        product = product * reduced[i][col]
        if mod:
            product %= mod
    # the sign of the permutation row -> column
    for k in range(n):
        j = pivot.pop(k, k)
        while j != k:
            j = pivot.pop(j)
            product = mod - product
    return div(product, den, mod)
