"""Command-line surface: relate, rank, classify, verify, eggbox.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on any
parse or validation error.  All JSON output is byte-stable for fixed
inputs, and every randomized suite requires an explicit --seed.  A
stdout closed before the output is written (``greenmat ... | head``) is
such an error too.

The argument parser is built once per process, on the first call of
main, and reused by every later call.  argparse runs once per request:
when the first argument names a subcommand, main hands the rest to that
subcommand's parser alone.  Every JSON document is written by
``format_json``, which gives the bytes of ``json.dumps(obj, indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

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
    """A request that ends in one ``error:`` line and exit 2."""


def format_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\n"`` for dicts with str keys, lists,
    tuples, str, int, bool and None.  The standard library runs its
    pure-Python encoder whenever an indent is given; this writer leaves
    each string to the C escaper and joins the rest itself."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, pad: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(obj) -> None:
    sys.stdout.write(format_json(obj))


def _unique_keys(pairs):
    """A JSON object as a dict, rejecting a key that occurs twice."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = val
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads' own test, which decode lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
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
        return format_json(r.to_json_dict())
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of this process, and its subcommand parsers by name.
    Sharing them is safe: parse_args returns a new Namespace per call,
    argparse looks up sys.stdout and sys.stderr only when it writes, and
    each subcommand's function reads the module globals it needs when it
    runs."""
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

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown subcommand
        args = parser.parse_args(argv)
    else:
        # what the top-level parse_args would do, minus its own pass over argv
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except (_CliError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the interpreter flushes stdout once more at exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
