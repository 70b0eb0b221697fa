#!/usr/bin/env python3
"""Search for a sticky 2x2 matrix (invertible entries, factor rank 2,
A_k H-related to B_k for every tested invertible k).

None is expected to exist; the interesting output is how each sampled
candidate gets refuted, and in particular that over the rationals the
square-root witness always does it.  --trials is bounded as for the
h_theorem suite (``greenmat verify``), and --show must be at least 0;
a bad value ends the script with one ``error:`` line on stderr and exit
code 2, before any search.
"""

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from greenmat.linear_maps import Exhaustive, Randomized, find_sticky
from greenmat.matrix import matrix_to_json
from greenmat.semiring import Semifield, format_value
from greenmat.verify import SuiteParams, UnsupportedParams, check_params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--semifield", default="tropical",
        choices=["boolean", "tropical", "tropical_int"],
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=SuiteParams.trials)
    parser.add_argument("--show", type=int, default=3, help="refutations to print in full")
    args = parser.parse_args(argv)

    sf = Semifield(args.semifield)
    try:
        check_params(
            "h_theorem",
            SuiteParams(semifield=sf, n=2, seed=args.seed, trials=args.trials),
        )
        if args.show < 0:
            raise UnsupportedParams(f"show must be at least 0, got {args.show}")
    except UnsupportedParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mode = (
        Exhaustive() if sf is Semifield.BOOLEAN
        else Randomized(seed=args.seed, trials=args.trials)
    )
    report = find_sticky(sf, mode)
    print(f"semifield: {report.semifield}   mode: {report.mode}   seed: {report.seed}")
    print(f"candidates examined: {report.candidates}")
    by_kind = collections.Counter(
        ("S3 @ sqrt witness" if r.k_is_square_root_witness else f"{r.failed} @ sampled k")
        if r.failed == "S3"
        else r.failed
        for r in report.refutations
    )
    for kind, count in sorted(by_kind.items()):
        print(f"  refuted by {kind}: {count}")
    for r in report.refutations[: args.show]:
        k_text = "-" if r.k is None else format_value(r.k)
        print(f"  example: M={matrix_to_json(r.m)['entries']} fails {r.failed} at k={k_text}")
    print(f"outcome: {report.outcome}")
    if report.survivor is not None:
        print(f"SURVIVOR: {matrix_to_json(report.survivor)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
