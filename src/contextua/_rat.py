"""Exact rational helpers shared across the package.

Every rational in the package is a :class:`fractions.Fraction`.  These
helpers sit at the boundary: parsing and printing rational text, and snapping
floats from numeric scenario generation to bounded-denominator rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction

#: Default denominator bound used when snapping floats to rationals.
DEFAULT_DENOMINATOR_BOUND = 10**6

#: Largest decimal exponent magnitude :func:`parse_rational` accepts: CPython's
#: default limit on int-string digits.  ``Fraction`` expands the exponent into
#: a power of ten: on CPython 3.11 that took 10 s for an exponent of 10**7 and
#: over two minutes for 10**8.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal literal into an exact Fraction.

    Raises ValueError on a malformed literal, a zero denominator, and a
    decimal exponent whose magnitude exceeds :data:`MAX_DECIMAL_EXPONENT`.
    """
    text = str(text).strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in a rational literal"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in a rational literal: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational the way :func:`parse_rational` reads it back."""
    return str(Fraction(value))


def rationalize(value: float, max_denominator: int = DEFAULT_DENOMINATOR_BOUND) -> Fraction:
    """Snap a float to a nearby exact rational with a bounded denominator.

    Used at the boundary where numeric scenario generation (Born-rule tables,
    noise sweeps) hands data to the exact core; everything downstream is exact.
    """
    return Fraction(value).limit_denominator(max_denominator)
