"""The argument type the scripts share: a range-checked list of rationals."""

import argparse
from fractions import Fraction

from contextua._rat import excerpt, rationals


def rational_list(low: Fraction, high: Fraction):
    """An argparse ``type=`` for comma-separated rationals, each in
    [low, high].  A bad entry is a usage error that quotes it through
    ``excerpt``, where argparse's own message would quote the whole list."""

    def parse(text: str) -> list[Fraction]:
        try:
            values = rationals(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        for value in values:
            if not low <= value <= high:
                raise argparse.ArgumentTypeError(
                    f"{excerpt(str(value))} lies outside [{low}, {high}]"
                )
        return values

    return parse
