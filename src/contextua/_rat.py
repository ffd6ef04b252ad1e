"""Exact rational helpers shared across the package.

All public interfaces speak :class:`fractions.Fraction`.  The heavy elimination
loops can run on ``gmpy2.mpq`` internally (a drop-in rational type with much
faster normalization); ``lift``/``lower`` convert at the boundary and fall back
to plain Fractions when gmpy2 is unavailable.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    HAVE_GMPY2 = True
except ImportError:  # gmpy2 is optional: the `fast` extra
    _mpq = None
    HAVE_GMPY2 = False

#: Default denominator bound used when snapping floats to rationals.
DEFAULT_DENOMINATOR_BOUND = 10**6


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal literal into an exact Fraction."""
    return Fraction(str(text).strip())


def format_rational(value: Fraction) -> str:
    """Render a rational the way :func:`parse_rational` reads it back."""
    return str(Fraction(value))


def rationalize(value: float, max_denominator: int = DEFAULT_DENOMINATOR_BOUND) -> Fraction:
    """Snap a float to a nearby exact rational with a bounded denominator.

    Used at the boundary where numeric scenario generation (Born-rule tables,
    noise sweeps) hands data to the exact core; everything downstream is exact.
    """
    return Fraction(value).limit_denominator(max_denominator)


def lift(value):
    """Convert a rational to the fast internal scalar type."""
    if HAVE_GMPY2:
        if isinstance(value, Fraction):
            return _mpq(value.numerator, value.denominator)
        return _mpq(value)
    return Fraction(value)


def lower(value) -> Fraction:
    """Convert an internal scalar back to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(int(value.numerator), int(value.denominator))


def zero():
    """The internal scalar zero."""
    return _mpq(0) if HAVE_GMPY2 else Fraction(0)


def one():
    """The internal scalar one."""
    return _mpq(1) if HAVE_GMPY2 else Fraction(1)
