"""Sparse exact linear algebra over the engine's scalar fields.

A matrix is a list of rows, and a row is either a dense list of scalars
or a dict ``{column: scalar}`` of its nonzero entries.  The scalars are
engine scalars (see ``fields``), and every function takes ``mod``: the
characteristic p, with residues in [0, p), or 0 over Q, with ints, or
Fractions where a division left a remainder.  The results hold engine
scalars too.  Only two questions are asked of a matrix: its rank
(``mat_rank``) and its right kernel (``nullspace``).  This module also
holds ``_add``, the one update of a dict row that the other modules
share.

The public functions copy their input into dict rows and hand the copy to
one forward elimination, ``_eliminate``, which reduces the rows it is given
in place (``complexes.is_isomorphic`` hands over the fresh rows of its
chain-map system to ``_kernel`` without a copy).  It works in two steps.

* The peel.  A row with one entry forces its column to zero in every
  kernel vector; the column is dropped from every row, which may leave
  more rows with one entry, and so on.  On the chain-map systems (hundreds
  of thousands of unknowns, a few entries a row, chains of one-entry
  equations from the ends of the complexes) the peel settles almost every
  column, and it touches each entry once.
* The elimination of what is left.  It clears the columns left to right,
  keeps an index from each column to the rows that are nonzero there, and
  takes the sparsest of those rows as the pivot, which keeps the fill-in
  small.  Over Q every row is first scaled to coprime integers and cleared
  by integer combinations, so no Fraction is made before
  back-substitution; over F_p the rows keep the field arithmetic.

A forced column is never free, and neither the peel nor the choice of
pivot row changes the kernel, so the pivot columns and the kernel basis
(1 at its free column, 0 at the other free columns and right of its own)
are those of textbook Gaussian elimination, and so is the rank.
"""

from heapq import heappop, heappush
from math import gcd, lcm

from .fields import div


def _add(row, c, x, mod):
    """row[c] += x, reduced by ``mod``, in a dict row of nonzero scalars;
    x is nonzero.  With ``mod`` 0 any scalars that add will do, as in the
    algebra elements (Fractions, Fp) and Laurent polynomials (ints)."""
    y = row.get(c, 0) + x
    if mod:
        y %= mod
    if y:
        row[c] = y
    else:
        del row[c]


def _rows(rows):
    """Dict copies of ``rows`` holding their nonzero entries."""
    return [{c: x for c, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
            for r in rows]


def _eliminate(rows, mod=0):
    """Forward elimination, in place, on ``rows``: a list of dict rows of
    nonzero entries that the caller hands over.

    Returns ``(pivot, echelon)``.  ``pivot`` maps the index of each pivot
    row to its column, the peeled ones first.  ``echelon`` holds the
    ``(column, row)`` pairs of the eliminated pivots in column order, each
    row zero left of its column and in every peeled column; a peeled row is
    left with its single entry.
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
    for row in live.values() if not mod else ():  # coprime integers
        try:
            g = gcd(*row.values())
        except TypeError:  # Fractions: clear the denominators
            d = lcm(*(x.denominator for x in row.values()))
            for c, x in row.items():
                row[c] = int(x * d)
            g = gcd(*row.values())
        if g != 1:
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
            if not mod:
                factor, r = divmod(x, pv)
                if r:  # row := a row - b prow with a pv = b x, a and b coprime
                    g = gcd(x, pv)
                    scale, factor = pv // g, x // g
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
                    for c, x in row.items():
                        row[c] = x // g
        pivot[p] = col
        echelon.append((col, prow))
    return pivot, echelon


def mat_rank(rows, mod=0):
    """Rank of a matrix."""
    return len(_eliminate(_rows(rows), mod)[0])


def nullspace(rows, ncols, mod=0):
    """Basis of the right kernel of a matrix with ``ncols`` columns.

    ``rows`` may be empty (kernel is everything).  The vector for a free
    column is 1 there and 0 at every other free column, which pins it down
    uniquely, and its entries right of the free column are 0.
    """
    return [[v.get(c, 0) for c in range(ncols)]
            for v in _kernel(_rows(rows), ncols, mod)]


def _kernel(rows, ncols, mod=0):
    """``nullspace`` of dict rows of nonzero entries, which it reduces in
    place, with each basis vector as a dict of its nonzero entries.

    A peeled column is 0 in every kernel vector.  The other pivot entries
    come from back-substitution, which visits only the pivot rows that
    meet an entry already set.
    """
    pivot, echelon = _eliminate(rows, mod)
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
        v = {fc: 1}
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
