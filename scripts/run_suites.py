#!/usr/bin/env python3
"""Run the whole verification battery at desk scale and print reports.

Boolean suites run exhaustively; tropical suites run seeded.  With
--json-dir the byte-stable JSON reports are also written to disk for
regression diffing.  Parameters are checked for every run, and --json-dir
made, before the first run starts; a rejected parameter or a directory
that cannot be made ends the script with one ``error:`` line on stderr
and exit code 2.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from greenmat.cli import format_report
from greenmat.semiring import Semifield
from greenmat.verify import (
    SuiteParams,
    UnknownSuite,
    UnsupportedParams,
    check_params,
    run_suite,
)

BATTERY = [
    ("t1", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("t2", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("corollaries", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("h_theorem", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("lemma_bg", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("invertibles", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("invertibles", SuiteParams(semifield=Semifield.BOOLEAN, n=3)),
    ("rank_j_monotone", SuiteParams(semifield=Semifield.BOOLEAN, n=2)),
    ("remark_2_6_regression", SuiteParams()),
]


def tropical_battery(seed: int, trials: int, monomial_pairs: int):
    yield "h_theorem", SuiteParams(
        semifield=Semifield.TROPICAL, n=2, seed=seed, trials=trials
    )
    yield "h_theorem", SuiteParams(
        semifield=Semifield.TROPICAL_INT, n=2, seed=seed, trials=trials
    )
    for n in (2, 3):
        yield "corollaries", SuiteParams(
            semifield=Semifield.TROPICAL, n=n, seed=seed, trials=trials,
            monomial_pairs=monomial_pairs,
        )
    yield "t1", SuiteParams(semifield=Semifield.BOOLEAN, n=3, seed=seed, trials=trials)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42, help="seed for the randomized suites")
    parser.add_argument("--trials", type=int, default=SuiteParams.trials)
    parser.add_argument("--monomial-pairs", type=int, default=SuiteParams.monomial_pairs)
    parser.add_argument("--json-dir", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    runs = list(BATTERY) + list(
        tropical_battery(args.seed, args.trials, args.monomial_pairs)
    )
    try:
        for name, params in runs:
            check_params(name, params)
        if args.json_dir is not None:
            args.json_dir.mkdir(parents=True, exist_ok=True)
    except (UnknownSuite, UnsupportedParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_all(runs, args.json_dir)


def run_all(runs, json_dir) -> int:
    failures = 0
    for name, params in runs:
        report = run_suite(name, params)
        print(format_report(report, "text"))
        if not report.passed:
            failures += 1
        if json_dir is not None:
            stem = f"{name}_{report.semifield}_n{report.n}_{report.mode}"
            path = json_dir / f"{stem}.json"
            path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    print(f"{len(runs) - failures}/{len(runs)} suites passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
