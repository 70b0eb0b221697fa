"""Command-line surface: relate, rank, classify, verify, eggbox.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on any
parse or validation error.  All JSON output is byte-stable for fixed
inputs, and every randomized suite requires an explicit --seed.

The argument parser is built once per process, on the first call of
main, and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import _tropfast
from .eggbox import eggbox, eggbox_to_dot, eggbox_to_json
from .green import (
    GreenRelation,
    RankUndetermined,
    SearchSpaceExceeded,
    UndecidableOverSemifield,
    factor_rank,
)
from .linear_maps import (
    CanonicalForm,
    canonical_form_to_json,
    classify_linear_map,
    linear_map_from_json,
)
from .matrix import DimensionMismatch, matrix_from_json, matrix_to_json
from .semiring import MixedSemifields, ParseError, Semifield
from .verify import (
    SuiteParams,
    SuiteReport,
    UnknownSuite,
    UnsupportedParams,
    run_suite,
)

_REL_CHOICES = ["L", "R", "H", "D", "J", "leqL", "leqR", "leqJ"]
_SEMIFIELD_CHOICES = [s.value for s in Semifield]


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _unique_keys(pairs):
    """A JSON object as a dict, rejecting a key that occurs twice."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = val
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, duplicate keys, bytes that are
        # not UTF-8 and integers beyond Python's digit limit; RecursionError
        # covers nesting too deep for the decoder
        raise _CliError(f"{path} is not valid JSON: {exc}") from None


def _load_matrix(path: str):
    try:
        return matrix_from_json(_load_json(path))
    except ParseError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _cmd_relate(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    rel = GreenRelation(args.rel)
    try:
        witness = _tropfast.relate_witness(a, b, rel)
    except (DimensionMismatch, MixedSemifields, UndecidableOverSemifield, SearchSpaceExceeded) as exc:
        raise _CliError(str(exc)) from None
    out = {"related": witness is not None, "witness": None}
    if witness is not None:
        out["witness"] = {key: matrix_to_json(m) for key, m in witness.items()}
    _emit(out)
    return 0


def _cmd_rank(args) -> int:
    a = _load_matrix(args.matrix)
    try:
        result = factor_rank(a)
    except RankUndetermined:
        _emit({"rank": "undetermined"})
        return 0
    except SearchSpaceExceeded as exc:
        raise _CliError(str(exc)) from None
    _emit({"rank": result.value, "method": result.method.value})
    return 0


def _cmd_classify(args) -> int:
    try:
        t = linear_map_from_json(_load_json(args.map))
    except ParseError as exc:
        raise _CliError(f"{args.map}: {exc}") from None
    outcome = classify_linear_map(t)
    if isinstance(outcome, CanonicalForm):
        _emit(canonical_form_to_json(outcome))
    else:
        _emit({"non_canonical": outcome.reason.value})
    return 0


def _cmd_verify(args) -> int:
    params = SuiteParams(
        semifield=Semifield(args.semifield),
        n=args.n,
        seed=args.seed,
        trials=args.trials,
    )
    try:
        report = run_suite(args.suite, params)
    except (UnknownSuite, UnsupportedParams) as exc:
        raise _CliError(str(exc)) from None
    print(format_report(report, args.style), end="")
    return 0 if report.passed else 1


def _cmd_eggbox(args) -> int:
    try:
        box = eggbox(args.n)
    except UnsupportedParams as exc:
        raise _CliError(str(exc)) from None
    if args.format == "dot":
        print(eggbox_to_dot(box), end="")
    else:
        _emit(eggbox_to_json(box))
    return 0


def format_report(r: SuiteReport, style: str = "json") -> str:
    """Render a suite report; json output is byte-stable for fixed input."""
    if style == "json":
        return json.dumps(r.to_json_dict(), indent=2) + "\n"
    lines = [
        f"suite {r.suite} ({r.semifield}, n={r.n}, {r.mode}): "
        f"{'PASS' if r.passed else 'FAIL'}"
    ]
    if r.seed is not None:
        lines.append(f"  seed: {r.seed} ({r.generator})")
    lines.append("  counts:")
    for key, val in r.counts.items():
        lines.append(f"    {key}: {val}")
    if r.witnesses:
        lines.append("  witnesses:")
        for w in r.witnesses:
            lines.append(f"    {json.dumps(w)}")
    else:
        lines.append("  witnesses: none")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Sharing it is safe: parse_args
    returns a new Namespace per call, argparse looks up sys.stdout and
    sys.stderr only when it writes, and each subcommand's function reads
    the module globals it needs when it runs."""
    parser = argparse.ArgumentParser(
        prog="greenmat",
        description="Green's relations, factor rank and preserver classification "
        "over boolean and tropical semifields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_relate = sub.add_parser("relate", help="decide a Green's relation between two matrices")
    p_relate.add_argument("--rel", required=True, choices=_REL_CHOICES)
    p_relate.add_argument("a", help="path to the left matrix (JSON)")
    p_relate.add_argument("b", help="path to the right matrix (JSON)")
    p_relate.set_defaults(func=_cmd_relate)

    p_rank = sub.add_parser("rank", help="factor rank of a matrix")
    p_rank.add_argument("matrix", help="path to the matrix (JSON)")
    p_rank.set_defaults(func=_cmd_rank)

    p_classify = sub.add_parser("classify", help="classify a linear map into canonical form")
    p_classify.add_argument("map", help="path to the linear map (JSON)")
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--semifield", default="boolean", choices=_SEMIFIELD_CHOICES)
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=SuiteParams.trials)
    p_verify.add_argument("--style", default="json", choices=["json", "text"])
    p_verify.set_defaults(func=_cmd_verify)

    p_eggbox = sub.add_parser("eggbox", help="egg-box decomposition of M_n(B)")
    p_eggbox.add_argument("--n", type=int, required=True)
    p_eggbox.add_argument("--format", default="json", choices=["json", "dot"])
    p_eggbox.set_defaults(func=_cmd_eggbox)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
