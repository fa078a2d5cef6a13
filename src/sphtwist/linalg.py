"""Dense exact linear algebra over the engine's scalar fields.

Matrices are lists of lists of scalars (Fraction or Fp).  Everything here is
one forward Gaussian elimination; sizes stay small because complexes are
kept minimal, so there is no need for anything fancier.
"""


def _eliminate(rows, ncols):
    """Forward elimination on a copy of ``rows``.

    Returns ``(echelon, pivots, product)``: the nonzero echelon rows, their
    pivot columns, and the product of the pivots times the sign of the row
    swaps.  Only rows below each pivot are cleared and nothing is
    normalized.
    """
    m = [list(r) for r in rows]
    pivots = []
    product = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = None
        for r in range(row, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            product = -product
        pivot_row = m[row]
        pv = pivot_row[col]
        product = product * pv
        for r in range(row + 1, len(m)):
            target = m[r]
            if target[col]:
                factor = target[col] / pv
                for c in range(col, ncols):
                    target[c] = target[c] - factor * pivot_row[c]
        pivots.append(col)
    return m[: len(pivots)], pivots, product


def mat_rank(rows):
    """Rank of a matrix."""
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def nullspace(rows, ncols, one):
    """Basis of the right kernel of a matrix with ``ncols`` columns.

    ``rows`` may be empty (kernel is everything).  ``one`` is the field's
    multiplicative unit, used to build the basis vectors.  The vector for a
    free column is 1 there and 0 at every other free column, which pins it
    down uniquely; the pivot entries come from back-substitution.
    """
    zero = one - one
    echelon, pivots, _product = _eliminate(rows, ncols)
    pivot_cols = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [zero] * ncols
        v[fc] = one
        for k in range(len(pivots) - 1, -1, -1):
            row = echelon[k]
            acc = row[fc]
            for c in pivots[k + 1 :]:
                if row[c]:
                    acc = acc + row[c] * v[c]
            v[pivots[k]] = -acc / row[pivots[k]]
        basis.append(v)
    return basis


def mat_det(rows):
    """Determinant of a square scalar matrix (returns a field scalar)."""
    n = len(rows)
    if n == 0:
        return None  # caller treats the empty matrix as invertible
    _echelon, pivots, product = _eliminate(rows, n)
    if len(pivots) < n:
        return rows[0][0] * 0
    return product
