"""Exact linear algebra over the rationals, plus an integer Smith normal form.

Matrices are plain ``list[list[Fraction]]`` (row major) and vectors are
``list[Fraction]``; ``int`` entries are accepted too.  One elimination kernel
serves ``rref``, ``rank``, ``nullspace`` and ``solve``: each row is scaled to
integers and reduced fraction-free (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968), so
the inner loop runs on Python ints and each answer divides by one common
denominator at the end.

Nothing here is approximate: every pivot, rank and nullspace vector is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*matrix)] if matrix else []


def mat_vec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vector:
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in matrix]


def _integer_rows(matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators.

    Scaling a row by a nonzero constant leaves the RREF, the rank, the kernel
    and the solution set of an augmented system unchanged.
    """
    rows = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


def _rref_internal(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Returns ``(pivots, d)``: afterwards row i of ``m`` is d times row i of the
    RREF, so every pivot entry equals d.  Each pivot p replaces every other
    row x by ``(p*x - a*y) // prev``, where y is the pivot row, a is x's entry
    in the pivot column and prev the previous pivot (1 before the first).
    The division is exact: by Sylvester's identity every entry stays a minor
    of the row-permuted integer input, hence an integer.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        top = m[row]
        p = top[col]
        for r in range(nrows):
            if r == row:
                continue
            a = m[r][col]
            if a:
                m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
            elif p != prev:
                m[r] = [p * x // prev for x in m[r]]
        prev = p
        pivots.append(col)
        row += 1
    return pivots, prev


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the pivot column indices."""
    m = _integer_rows(matrix)
    pivots, d = _rref_internal(m)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_rref_internal(_integer_rows(matrix))[0])


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Rational basis of the right nullspace.

    Basis vectors are built from the RREF, one per free column in increasing
    column order, and each is scaled so its first nonzero entry is +1.  The
    result is therefore canonical for a given matrix.
    """
    if not matrix:
        return []
    m = _integer_rows(matrix)
    pivots, d = _rref_internal(m)
    ncols = len(matrix[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # d times the RREF kernel vector: d at the free column, -m[i][free]
        # at pivot column i; scaling by its first nonzero entry cancels d
        vec = [0] * ncols
        vec[free] = d
        for i, pcol in enumerate(pivots):
            vec[pcol] = -m[i][free]
        first = next(x for x in vec if x)
        basis.append([Fraction(x, first) for x in vec])
    return basis


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """One exact solution of ``matrix @ x = rhs``, or None if inconsistent.

    Free variables (if any) are set to zero.
    """
    if not matrix:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(matrix[0])
    aug = _integer_rows([*row, b] for row, b in zip(matrix, rhs))
    pivots, d = _rref_internal(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, pcol in enumerate(pivots):
        x[pcol] = Fraction(aug[i][ncols], d)
    return x


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
