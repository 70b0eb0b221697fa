#!/usr/bin/env python3
"""Emit egg-box diagrams of the boolean matrix monoids M_n(B), n <= 3.

Every requested n is decomposed, and --out-dir made, before anything is
printed; an n out of range or an --out-dir that cannot be made ends the
script with one ``error:`` line on stderr and exit code 2.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from greenmat.cli import format_json
from greenmat.eggbox import eggbox, eggbox_to_dot, eggbox_to_json
from greenmat.semiring import UnsupportedParams


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--format", default="dot", choices=["dot", "json"])
    parser.add_argument(
        "--out-dir", type=pathlib.Path, default=None,
        help="write files instead of printing to stdout",
    )
    args = parser.parse_args(argv)

    try:
        boxes = [eggbox(n) for n in args.n]
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
    except (UnsupportedParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for n, box in zip(args.n, boxes):
        text = (
            eggbox_to_dot(box)
            if args.format == "dot"
            else format_json(eggbox_to_json(box))
        )
        summary = (
            f"n={n}: {len(box.d_classes)} D-classes, "
            f"{sum(len(d.h_classes) for d in box.d_classes)} H-classes, "
            f"{sum(d.size for d in box.d_classes)} matrices"
        )
        if args.out_dir is None:
            print(text, end="")
            print(f"// {summary}" if args.format == "dot" else f"# {summary}")
        else:
            path = args.out_dir / f"eggbox_n{n}.{args.format}"
            path.write_text(text)
            print(f"{path}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
