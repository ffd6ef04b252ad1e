"""Exact linear algebra over the rationals, plus an integer Smith normal form.

Matrices are plain ``list[list[Fraction]]`` (row major) and vectors are
``list[Fraction]``.  The elimination kernels lift entries to the fast internal
rational type from :mod:`contextua._rat`, so the public API stays on
``fractions.Fraction`` while the inner loops run on gmpy2 when present.

Nothing here is approximate: every pivot, rank and nullspace vector is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import _rat

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _lift_matrix(matrix: Sequence[Sequence[Fraction]]):
    return [[_rat.lift(x) for x in row] for row in matrix]


def _lower_matrix(matrix) -> Matrix:
    return [[_rat.lower(x) for x in row] for row in matrix]


def _lower_vector(vec) -> Vector:
    return [_rat.lower(x) for x in vec]


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*matrix)] if matrix else []


def mat_vec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vector:
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in matrix]


def _rref_internal(m):
    """In-place RREF on lifted rows; returns pivot column list."""
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return pivots


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the pivot column indices."""
    m = _lift_matrix(matrix)
    pivots = _rref_internal(m)
    return _lower_matrix(m), pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    m = _lift_matrix(matrix)
    return len(_rref_internal(m))


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Rational basis of the right nullspace.

    Basis vectors are built from the RREF, one per free column in increasing
    column order, and each is scaled so its first nonzero entry is +1.  The
    result is therefore canonical for a given matrix.
    """
    if not matrix:
        return []
    m = _lift_matrix(matrix)
    pivots = _rref_internal(m)
    ncols = len(matrix[0])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vector] = []
    for free in free_cols:
        vec = [_rat.zero() for _ in range(ncols)]
        vec[free] = _rat.one()
        for i, pcol in enumerate(pivots):
            if m[i][free] != 0:
                vec[pcol] = -m[i][free]
        first = next(x for x in vec if x != 0)
        if first != 1:
            inv = 1 / first
            vec = [x * inv for x in vec]
        basis.append(_lower_vector(vec))
    return basis


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """One exact solution of ``matrix @ x = rhs``, or None if inconsistent.

    Free variables (if any) are set to zero.
    """
    if not matrix:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(matrix[0])
    aug = _lift_matrix([list(row) + [b] for row, b in zip(matrix, rhs)])
    pivots = _rref_internal(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [_rat.zero() for _ in range(ncols)]
    for i, pcol in enumerate(pivots):
        x[pcol] = aug[i][ncols]
    return _lower_vector(x)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Classic elimination: pick the nonzero entry of least magnitude, move it to
    the working corner, reduce its row and column by Euclidean steps, restore
    the divisibility chain, recurse on the remaining block.  Naive pivoting is
    fine at the scale of the complexes handled here.
    """
    m = [[int(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pr = pc = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(m[i][j])
                if v != 0 and (best is None or v < best):
                    best, pr, pc = v, i, j
        if best is None:
            break
        m[t], m[pr] = m[pr], m[t]
        for row in m:
            row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = m[t][t]
            done = True
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    q = m[i][t] // pivot
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    q = m[t][j] // pivot
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # Restore divisibility: the pivot must divide every remaining entry.
        pivot = m[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors
