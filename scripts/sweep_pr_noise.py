#!/usr/bin/env python3
"""Noise sweep for the extremal-box family, plus a threshold search.

For each mixing weight w the extremal two-party box is blended with uniform
noise.  The sweep reports the embedding verdict and minimal negativity of
the blended fragment next to the contextual fraction of the blended table,
then bisects for the weight where the embedding first fails.  The default
grid and bisection take about 2 s in all (Python 3.11, one core of a 2-vCPU
Xeon).
"""

import argparse
from fractions import Fraction

from _arguments import rational_list
from contextua.noncontextuality import (
    contextual_fraction,
    minimal_negativity,
    noncontextual_lp,
)
from contextua.scenarios import noisy_pr_fragment, two_party_model_from_fragment


def fragment_feasible(w: Fraction) -> bool:
    return noncontextual_lp(noisy_pr_fragment(w)).status == "optimal"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        type=rational_list(noisy_pr_fragment),
        default="0,1/4,1/2,5/8,3/4,1",
        help="comma-separated mixing weights in [0,1]",
    )
    parser.add_argument(
        "--bisect-steps", type=int, default=5, help="threshold refinement steps"
    )
    args = parser.parse_args()
    print(f"{'w':>8} {'embedding':>10} {'negativity':>12} {'fraction':>10}")
    last_feasible, first_infeasible = None, None
    for w, f in args.grid:
        solution = noncontextual_lp(f)
        _, negativity = minimal_negativity(f)
        cf = contextual_fraction(two_party_model_from_fragment(f)).cf
        print(f"{str(w):>8} {solution.status:>10} {str(negativity):>12} {str(cf):>10}")
        if solution.status == "optimal":
            last_feasible = w
        elif first_infeasible is None:
            first_infeasible = w

    if last_feasible is None or first_infeasible is None:
        print("no feasibility threshold inside the grid")
        return
    lo, hi = last_feasible, first_infeasible
    for _ in range(args.bisect_steps):
        mid = (lo + hi) / 2
        if fragment_feasible(mid):
            lo = mid
        else:
            hi = mid
    print(f"embedding threshold inside ({lo}, {hi}]")


if __name__ == "__main__":
    main()
