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

#: Most decimal digits a parsed numerator or denominator may have: CPython's
#: default limit on int-string conversion, past which the value cannot be
#: printed back.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS
#: Largest decimal exponent magnitude :func:`parse_rational` accepts, checked
#: before ``Fraction`` expands the exponent into a power of ten: on CPython
#: 3.11 that took 10 s for an exponent of 10**7 and over two minutes for 10**8.
MAX_DECIMAL_EXPONENT = MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal literal into an exact Fraction.

    Raises ValueError on a malformed literal, a zero denominator, a decimal
    exponent whose magnitude exceeds :data:`MAX_DECIMAL_EXPONENT`, and a value
    whose numerator or denominator has more than :data:`MAX_DIGITS` digits,
    which the error quotes.
    """
    text = str(text).strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in a rational literal"
        )
    shown = text if len(text) <= 40 else f"{text[:30]}...{text[-8:]}"
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in a rational literal: {exc}") from exc
    except ValueError as exc:
        if len(text) <= MAX_DIGITS:
            raise
        # CPython refuses a digit string longer than its int-string limit
        raise ValueError(
            f"rational literal {shown!r} is longer than {MAX_DIGITS} characters"
        ) from exc
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise ValueError(
            f"rational literal {shown!r} has more than {MAX_DIGITS} digits"
        )
    return value


def format_rational(value: Fraction) -> str:
    """Render a rational the way :func:`parse_rational` reads it back."""
    return str(Fraction(value))


def rationalize(value: float) -> Fraction:
    """Snap a float to a nearby exact rational with a bounded denominator.

    Used at the boundary where numeric scenario generation (Born-rule tables,
    noise sweeps) hands data to the exact core; everything downstream is exact.
    """
    return Fraction(value).limit_denominator(DEFAULT_DENOMINATOR_BOUND)
