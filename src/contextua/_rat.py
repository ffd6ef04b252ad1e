"""Exact rational helpers shared across the package.

Every rational in the package is a :class:`fractions.Fraction`.  These
helpers sit at the boundary: parsing and printing rational text, reading
a JSON input file and its numbers and lists, quoting a refused value, and
snapping floats from numeric scenario generation to bounded-denominator
rationals.
"""

from __future__ import annotations

import json
import math
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


def excerpt(text: str) -> str:
    """``text`` cut to at most 41 characters for an error message: its first
    30 and last 8 around ``...`` when it is longer than 40."""
    return text if len(text) <= 40 else f"{text[:30]}...{text[-8:]}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal literal into an exact Fraction.

    Raises ValueError on a malformed literal, a zero denominator, a decimal
    exponent whose magnitude exceeds :data:`MAX_DECIMAL_EXPONENT`, and a value
    whose numerator or denominator has more than :data:`MAX_DIGITS` digits,
    which the error quotes.  An error quotes the literal through
    :func:`excerpt`.
    """
    text = str(text).strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT} in a rational literal"
        )
    shown = excerpt(text)
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(
            f"zero denominator in a rational literal: {excerpt(str(exc))}"
        ) from exc
    except ValueError as exc:
        if len(text) <= MAX_DIGITS:
            raise ValueError(f"Invalid literal for Fraction: {shown!r}") from exc
        # CPython refuses a digit string longer than its int-string limit
        raise ValueError(
            f"rational literal {shown!r} is longer than {MAX_DIGITS} characters"
        ) from exc
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise ValueError(
            f"rational literal {shown!r} has more than {MAX_DIGITS} digits"
        )
    return value


def rationals(text: str) -> list[Fraction]:
    """The comma-separated rationals in ``text``, each read by
    :func:`parse_rational`; blank entries are skipped."""
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"a JSON object repeats the key {excerpt(key)!r}")
        doc[key] = value
    return doc


def json_in(text: str):
    """The JSON document in ``text``.  An object that names one key twice
    is refused, quoting the key, where ``json.loads`` keeps its last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def rational_in(x, what: str) -> Fraction:
    """A JSON value read as an exact rational by :func:`parse_rational`:
    rational text, an integer, or a finite float as the shortest decimal that
    names it (``0.1`` is 1/10).  Anything else is refused naming ``what``."""
    if type(x) is int or (type(x) is float and math.isfinite(x)):
        x = repr(x)
    elif type(x) is not str:
        raise ValueError(f"{what} holds {excerpt(json.dumps(x))}, not a rational")
    return parse_rational(x)


def int_in(x, what: str) -> int:
    if type(x) is not int:  # JSON integers only: no bool, float or string
        raise ValueError(f"{what} {excerpt(repr(x))} is not an integer")
    return x


def list_in(x, what: str) -> list:
    if type(x) is not list:  # JSON lists only: a string is not its characters
        raise ValueError(f"{what} is not a JSON list")
    return x


def name_in(x, what: str) -> str:
    if type(x) is not str:  # JSON strings only: names are hashed and sorted
        raise ValueError(f"{what} holds {excerpt(json.dumps(x))}, not a JSON string")
    return x


def object_in(x, what: str, keys=None) -> dict:
    """A JSON object whose keys all lie in ``keys``, when given.  Any other
    key is refused, quoted through :func:`excerpt`, where a reader would
    drop it."""
    if type(x) is not dict:
        raise ValueError(f"{what} is not a JSON object")
    for key in x:
        if keys is not None and key not in keys:
            raise ValueError(f"{what} has an unknown key {excerpt(key)!r}")
    return x


def key_in(x: dict, key: str, what: str):
    """The value of ``key`` in the JSON object ``x``; a missing key is
    refused, naming ``what`` and the key."""
    if key not in x:
        raise ValueError(f"{what} has no key {excerpt(key)!r}")
    return x[key]


def format_rational(value: Fraction) -> str:
    """Render a rational the way :func:`parse_rational` reads it back."""
    return str(Fraction(value))


def rationalize(value: float) -> Fraction:
    """Snap a float to a nearby exact rational with a bounded denominator.

    Used at the boundary where numeric scenario generation (Born-rule tables,
    noise sweeps) hands data to the exact core; everything downstream is exact.
    """
    return Fraction(value).limit_denominator(DEFAULT_DENOMINATOR_BOUND)
