#!/usr/bin/env python3
"""Report how marginal disagreement feeds through the fraction split.

Two one-parameter families: a three-measurement chain whose middle marginal
is skewed by a planted gap (disturbing, never contextual), and an extremal
two-party box with one context nudged toward an agreeing deterministic
corner (disturbing and contextual at once).  For each point the report
shows the detected findings, the ncf/cf/df split, and the contextual
fraction left after splitting the disagreeing measurements apart.
"""

import argparse

from _arguments import rational_list
from contextua.disturbance import (
    detect_disturbance,
    extend_scenario,
    fractions_with_disturbance,
)
from contextua.noncontextuality import contextual_fraction
from contextua.scenarios import nudged_box, planted_gap_model


def report(title, models):
    print(title)
    header = f"{'param':>8} {'findings':>9} {'ncf':>8} {'cf':>8} {'df':>8} {'cf-after-split':>15}"
    print(header)
    for param, m in models:
        findings = detect_disturbance(m)
        split = fractions_with_disturbance(m)
        after = contextual_fraction(extend_scenario(m).model).cf
        print(
            f"{str(param):>8} {len(findings):>9} {str(split.ncf):>8}"
            f" {str(split.cf):>8} {str(split.df):>8} {str(after):>15}"
        )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--gaps",
        type=rational_list(planted_gap_model),
        default="0,1/8,1/4,3/8,1/2",
        help="planted chain gaps in [0,1/2]",
    )
    parser.add_argument(
        "--nudges",
        type=rational_list(nudged_box),
        default="0,1/8,1/4,1/2,1",
        help="box corner weights in [0,1]",
    )
    args = parser.parse_args()

    report("planted chain (pure disturbance)", args.gaps)
    report("nudged extremal box (disturbance eats contextuality)", args.nudges)


if __name__ == "__main__":
    main()
