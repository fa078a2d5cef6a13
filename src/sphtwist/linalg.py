"""Sparse exact linear algebra over the engine's scalar fields.

A matrix is a list of rows, and a row is either a dense list of scalars
or a dict ``{column: scalar}`` of its nonzero entries.  Every function
takes ``mod``.  With the characteristic p of F_p, the scalars are engine
scalars, ints in [0, p) (see ``fields``), and so are the results.  With the
default 0, they are ints or Fractions over Q, or public scalars
(``Fraction``, ``Fp``), which carry their own arithmetic.

Everything here is one forward elimination, ``_eliminate``, on the dict
form.  It clears the columns left to right, keeps an index from each column
to the rows that are nonzero there, and takes the sparsest of those rows as
the pivot, which keeps the fill-in small on the chain-map systems of
``complexes.is_isomorphic`` (thousands of unknowns, a few entries a row).
The choice of pivot row changes neither the pivot columns nor the kernel
basis (1 at its free column, 0 at the other free columns), so ranks,
kernels and determinants are those of textbook Gaussian elimination.
"""

from heapq import heappop, heappush

from .fields import div


def _eliminate(rows, mod=0):
    """Forward elimination on a copy of ``rows``.

    Returns ``(echelon, order)``: one ``(column, row)`` pair per pivot in
    column order, each row a dict that is zero left of its pivot column and
    whose pivot entry is nonzero; and the index in ``rows`` of each pivot
    row.  A pivot row is not cleared by later pivots.
    """
    live = {}
    at = {}
    for i, r in enumerate(rows):
        row = {c: x for c, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
        if row:
            live[i] = row
            for c in row:
                at.setdefault(c, set()).add(i)
    echelon = []
    order = []
    for col in sorted(at):
        cand = at.pop(col)
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(live[i]), i))
        prow = live.pop(p)
        pv = prow[col]
        for c in prow:
            if c != col:
                at[c].discard(p)
        for i in cand:
            if i == p:
                continue
            row = live[i]
            factor = div(row.pop(col), pv, mod)
            for c, x in prow.items():
                if c == col:
                    continue
                y = row.get(c, 0) - factor * x
                if mod:
                    y %= mod
                if y:
                    if c not in row:
                        at[c].add(i)
                    row[c] = y
                elif c in row:
                    del row[c]
                    at[c].discard(i)
        echelon.append((col, prow))
        order.append(p)
    return echelon, order


def mat_rank(rows, mod=0):
    """Rank of a matrix."""
    return len(_eliminate(rows, mod)[0])


def nullspace(rows, ncols, one, mod=0):
    """Basis of the right kernel of a matrix with ``ncols`` columns.

    ``rows`` may be empty (kernel is everything).  ``one`` is the unit of
    the rows' scalars (the int 1 for engine scalars), used to build the
    basis vectors.  The vector for a free column is 1 there and 0 at every
    other free column, which pins it down uniquely, and its entries right
    of the free column are 0.  The pivot entries come from
    back-substitution, which visits only the pivot rows that meet an entry
    already set.
    """
    zero = one - one
    echelon, _order = _eliminate(rows, mod)
    pivot_cols = {col for col, _row in echelon}
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
        basis.append([v.get(c, zero) for c in range(ncols)])
    return basis


def mat_det(rows, mod=0):
    """Determinant of a square scalar matrix (returns a field scalar)."""
    n = len(rows)
    if n == 0:
        return None  # caller treats the empty matrix as invertible
    echelon, order = _eliminate(rows, mod)
    if len(echelon) < n:
        for r in rows:  # a zero of the rows' field
            for x in r.values() if isinstance(r, dict) else r:
                return x * 0
        return 0
    product = 1
    for col, row in echelon:
        product = product * row[col]
        if mod:
            product %= mod
    # the pivot rows in pivot order form an upper triangular matrix; the
    # sign is that of the permutation k -> order[k]
    seen = [False] * n
    for k in range(n):
        if seen[k]:
            continue
        j = order[k]
        while j != k:
            seen[j] = True
            j = order[j]
            product = mod - product
        seen[k] = True
    return product
