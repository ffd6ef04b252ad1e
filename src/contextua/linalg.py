"""Exact linear algebra over the rationals, plus an integer Smith normal form.

Matrices are plain ``list[list[Fraction]]`` (row major) and vectors are
``list[Fraction]``; ``int`` entries are accepted too.  One elimination step,
:func:`pivot`, serves ``rref``, ``rank``, ``nullspace`` and ``solve`` here
and every pivot of the simplex in :mod:`contextua.lp`.  It works on rows of
Python ints, each over its own positive denominator, so a row stands for
``ints / den`` and the inner loop never builds a Fraction.  A row whose
entry in the pivot column is 0 keeps its value, so it is left alone: sparse
rows, such as those of a boundary matrix, stay cheap.  :func:`inverse` runs
on the same step and answers as ints over one denominator.
:func:`independent_rows` works on sparse rows instead, touching only their
nonzeros, and picks the rows the simplex keeps.

Nothing here is approximate: every pivot, rank and nullspace vector is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    """The columns as rows; rows of unequal length raise ValueError."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("matrix rows must all have the same length")
    return [list(col) for col in zip(*matrix)]


def over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as (ints, den): den is the lcm of their denominators and
    ``ints[j] / den == values[j]``."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def lowest_terms(ints: list[int], den: int) -> tuple[list[int], int]:
    """The same row over the smallest denominator its ints allow."""
    g = gcd(den, *ints)
    if g == 1:
        return ints, den
    return [x // g for x in ints], den // g


def pivot(rows: list[list[int]], dens: list[int], row: int, col: int) -> None:
    """One Gauss-Jordan step at (row, col), in place.

    Row i stands for ``rows[i] / dens[i]``, every den positive, and
    ``rows[row][col]`` is nonzero.  The pivot row becomes P / p: its ints
    made positive at col and divided by their gcd, and p = P[col].  Each
    other row O / d with o = O[col] nonzero becomes O / d - (o / d) * (P / p);
    with o = g*f and p = g*q for g = gcd(o, p), that is (O*q - f*P) / (d*q).
    For q == 1 only the nonzero columns of P change, in place; otherwise the
    scaled row is reduced, so the denominators do not grow without need.
    A row with o == 0 keeps its value, so it is left alone, as the same list.
    """
    pivot_row = rows[row]
    p = pivot_row[col]
    if p < 0:
        pivot_row = [-x for x in pivot_row]
        p = -p
    g = gcd(*pivot_row)
    if g != 1:
        pivot_row = [x // g for x in pivot_row]
        p //= g
    rows[row] = pivot_row
    dens[row] = p
    nonzero = [(j, y) for j, y in enumerate(pivot_row) if y]
    for i, other in enumerate(rows):
        o = other[col]
        if o and i != row:
            g = gcd(o, p)
            q, f = p // g, o // g
            if q != 1:
                other = [x * q for x in other]
            for j, y in nonzero:
                other[j] -= f * y
            if q != 1:
                rows[i], dens[i] = lowest_terms(other, dens[i] * q)


def _rref_internal(matrix) -> tuple[list[list[int]], list[int], list[int]]:
    """Gauss-Jordan elimination of ``matrix``'s rows by :func:`pivot`.

    Returns ``(rows, dens, pivots)``: row i of the RREF is
    ``rows[i] / dens[i]``, and ``pivots`` are its pivot columns.  Rows of
    unequal length raise ValueError.
    """
    scaled = [over_lcm(values) for values in matrix]
    rows = [ints for ints, _ in scaled]
    dens = [den for _, den in scaled]
    ncols = len(rows[0]) if rows else 0
    if any(len(ints) != ncols for ints in rows):
        raise ValueError("matrix rows must all have the same length")
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        if top == len(rows):
            break
        found = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        dens[top], dens[found] = dens[found], dens[top]
        pivot(rows, dens, top, col)
        pivots.append(col)
        top += 1
    return rows, dens, pivots


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the pivot column indices."""
    rows, dens, pivots = _rref_internal(matrix)
    return [[Fraction(x, d) for x in ints] for ints, d in zip(rows, dens)], pivots


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_rref_internal(matrix)[2])


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Rational basis of the right nullspace.

    Basis vectors are built from the RREF, one per free column in increasing
    column order, and each is scaled so its first nonzero entry is +1.  The
    result is therefore canonical for a given matrix.
    """
    if not matrix:
        return []
    rows, dens, pivots = _rref_internal(matrix)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # the RREF kernel vector times the lcm of the denominators it reads;
        # scaling by its first nonzero entry cancels that lcm
        scale = lcm(*(dens[i] for i in range(len(pivots)) if rows[i][free]))
        vec = [0] * ncols
        vec[free] = scale
        for i, pcol in enumerate(pivots):
            x = rows[i][free]
            if x:
                vec[pcol] = -x * (scale // dens[i])
        first = next(x for x in vec if x)
        basis.append([Fraction(x, first) for x in vec])
    return basis


def solve(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    ncols: int | None = None,
) -> Vector | None:
    """One exact solution of ``matrix @ x = rhs``, or None if inconsistent.

    Free variables (if any) are set to zero.  ``ncols``, the number of
    unknowns, is read off the rows; a matrix with no rows must state it,
    and then every x of that length solves a zero right-hand side.  A
    right-hand side of the wrong length, or an ``ncols`` the rows disagree
    with, raises ValueError.
    """
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(matrix)} rows")
    if not matrix:
        if ncols is None:
            raise ValueError("a matrix with no rows needs its column count")
        return [Fraction(0)] * ncols if all(b == 0 for b in rhs) else None
    if ncols not in (None, len(matrix[0])):
        raise ValueError(f"matrix rows have {len(matrix[0])} entries, not {ncols}")
    ncols = len(matrix[0])
    rows, dens, pivots = _rref_internal([*row, b] for row, b in zip(matrix, rhs))
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, pcol in enumerate(pivots):
        x[pcol] = Fraction(rows[i][ncols], dens[i])
    return x


def inverse(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int] | None:
    """The exact inverse of a square matrix as ``(ints, den)``, entry (i, j)
    being ``ints[i][j] / den`` in lowest terms over the one ``den``; None if
    the matrix is singular.  A matrix that is not square raises ValueError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("only a square matrix has an inverse")
    rows, dens, pivots = _rref_internal(
        [*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)
    )
    if pivots != list(range(n)):
        return None
    den = lcm(*dens)
    ints = [[x * (den // d) for x in row[n:]] for row, d in zip(rows, dens)]
    g = gcd(den, *(x for row in ints for x in row))
    return [[x // g for x in row] for row in ints], den // g


def independent_rows(rows: Sequence[Mapping[int, Fraction]]) -> list[int]:
    """Positions of a maximal independent set of sparse rows, in increasing
    order, chosen greedily from the last row to the first: a row is kept
    when it is not in the span of the rows kept after it.

    Each row maps a column to its entry; zero entries are ignored.  The
    elimination is fraction free and reads only nonzeros.  Every kept row,
    as coprime ints, is stored under its least column; a new row is reduced
    at its least column by the row stored there until no row is stored
    there (it is kept) or nothing is left (it is in the span).  Any nonzero
    combination of stored rows leads at one of their distinct least
    columns, so a row leading elsewhere is independent of them.
    """
    echelon: dict[int, dict[int, int]] = {}
    kept = []
    for position in range(len(rows) - 1, -1, -1):
        den = lcm(*(x.denominator for x in rows[position].values()))
        row = {
            j: x.numerator * (den // x.denominator)
            for j, x in rows[position].items()
            if x
        }
        while row:
            lead = min(row)
            stored = echelon.get(lead)
            if stored is None:
                g = gcd(*row.values())
                echelon[lead] = {j: x // g for j, x in row.items()}
                kept.append(position)
                break
            g = gcd(row[lead], stored[lead])
            q, f = stored[lead] // g, row[lead] // g
            if q != 1:
                row = {j: x * q for j, x in row.items()}
            for j, y in stored.items():
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
    kept.reverse()
    return kept


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Classic elimination: pick the nonzero entry of least magnitude, move it to
    the working corner, reduce its row and column by Euclidean steps, recurse
    on the remaining block.  The search for the least entry stops at the
    first ±1, which is already the first minimum in row-major order.  The
    diagonal left behind is put in divisibility order by one pass over its
    entries above 1, which replaces each pair (a, b) by (gcd, lcm); the Smith
    form is unique, so these are the invariant factors.  On boundary
    matrices nearly every pivot is ±1, and the pass has nothing to do.
    """
    m = [[int(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors: list[int] = []
    for t in range(min(nrows, ncols)):
        pr = pc = -1
        best = None
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                v = abs(row[j])
                if v != 0 and (best is None or v < best):
                    best, pr, pc = v, i, j
                    if v == 1:
                        break
            if best == 1:
                break
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
        factors.append(abs(m[t][t]))
    chain = [d for d in factors if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            chain[i], chain[j] = gcd(a, b), lcm(a, b)
    return [1] * (len(factors) - len(chain)) + chain
