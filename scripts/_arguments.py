"""The argument type the scripts share: a list of one family's inputs."""

import argparse

from contextua._rat import rationals


def rational_list(factory):
    """An argparse ``type=`` for comma-separated rationals, each built into
    its input by ``factory``, which checks the family's range: a list of
    (value, input) pairs.  A bad entry is a usage error that quotes it
    through ``excerpt``, where argparse's own message would quote the whole
    list."""

    def parse(text: str) -> list:
        try:
            return [(value, factory(value)) for value in rationals(text)]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse
