"""Command-line interface.

Commands:
  check <file>   run all six purity checkers on a sequence document
  random         randomized checker-agreement harness
  lemmas         functor-level isomorphism suites
  example        write a bundled sequence document

Sequence document (JSON): keys modulus, L, M, N (invariant-factor lists),
f, g (integer matrices).  Matrices act on coordinate columns; rows are
indexed by codomain generators and columns by domain generators, so the j-th
domain generator maps to sum_i m[i][j] * (i-th codomain generator).

pp formulas in witnesses use the textual syntax
  E y1 y2 : 2x1 + 3y1 = 0 & y1 - y2 = 0
with free variables x1..xk, bound variables y1..ym declared after `E`, one
linear equation per `&`-separated clause.

Exit codes: 0 success; 1 failed check (no consensus, harness disagreement,
failed lemma suite, or internal defect); 2 invalid input; 3 parse/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .errors import InputError, InternalCheckError
from .finmod import CanonicalModule, ModuleMap, ShortSequence, divisors
from .purity import (MAX_TRIALS, Bounds, HarnessSummary, PurityReport, check_fp_budget,
                     equivalence_harness, purity_report)
from .zmodlin import IntMatrix

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# Documents

BUNDLED_EXAMPLES = {
    "z4-nonpure": {
        "modulus": 4,
        "L": [2],
        "M": [4],
        "N": [2],
        "f": [[2]],
        "g": [[1]],
    },
    "split-demo": {
        "modulus": 4,
        "L": [2],
        "M": [2, 4],
        "N": [4],
        "f": [[1], [0]],
        "g": [[0, 1]],
    },
}


# `divisors` tries every candidate up to sqrt(N), about 10^6 steps here
MAX_MODULUS = 10**12

# `lemmas` works in the index category D, one object per divisor of N; a
# functor keeps up to d(N)^2 actions.  N=2520 has 48 objects and one trial of
# every suite takes under 1 s; more objects are refused unbuilt.
MAX_LEMMA_OBJECTS = 48


def _check_modulus(modulus: int) -> None:
    if modulus > MAX_MODULUS:
        raise InputError(f"modulus {modulus} exceeds the supported {MAX_MODULUS}")


def _exact_int(value, key: str) -> int:
    # bool is a subclass of int, and int() would truncate a float
    if type(value) is not int:
        raise InputError(f"malformed sequence document: {key} holds "
                         f"{type(value).__name__} {value!r}, not an integer")
    return value


def _int_list(value, key: str) -> list[int]:
    if not isinstance(value, list):
        raise InputError(f"malformed sequence document: {key} is not a list")
    return [_exact_int(v, key) for v in value]


def _int_rows(value, key: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise InputError(f"malformed sequence document: {key} is not a list")
    return [_int_list(row, key) for row in value]


def parse_sequence_document(doc: dict) -> ShortSequence:
    """The sequence a document describes.  Numbers must be JSON integers
    and lists JSON arrays; anything else is an InputError."""
    if not isinstance(doc, dict):
        raise InputError("malformed sequence document: not a JSON object")
    try:
        modulus = _exact_int(doc["modulus"], "modulus")
        inv_l = _int_list(doc["L"], "L")
        inv_m = _int_list(doc["M"], "M")
        inv_n = _int_list(doc["N"], "N")
        f_rows = _int_rows(doc["f"], "f")
        g_rows = _int_rows(doc["g"], "g")
    except KeyError as exc:
        raise InputError(f"malformed sequence document: missing key {exc}")
    _check_modulus(modulus)
    left = CanonicalModule(modulus, tuple(inv_l))
    middle = CanonicalModule(modulus, tuple(inv_m))
    right = CanonicalModule(modulus, tuple(inv_n))
    f = ModuleMap(left, middle, IntMatrix.from_rows(f_rows, cols=left.ngens))
    g = ModuleMap(middle, right, IntMatrix.from_rows(g_rows, cols=middle.ngens))
    return ShortSequence.from_maps(f, g)


def sequence_document(seq: ShortSequence) -> dict:
    return {
        "modulus": seq.modulus,
        "L": list(seq.left.invariants),
        "M": list(seq.middle.invariants),
        "N": list(seq.right.invariants),
        "f": seq.f.matrix.tolists(),
        "g": seq.g.matrix.tolists(),
    }


def report_document(seq: ShortSequence, report: PurityReport,
                    seed: Optional[int] = None) -> dict:
    return {
        "kind": "purity-report",
        "version": __version__,
        "sequence": sequence_document(seq),
        "bounds": report.bounds.to_dict(),
        "seed": seed,
        "verdicts": dict(report.verdicts),
        "witnesses": dict(report.witnesses),
        "consensus": report.consensus,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Output helpers


def _pick_format(args) -> str:
    if args.format:
        return args.format
    return "text" if sys.stdout.isatty() else "json"


def _report_text(report: PurityReport) -> str:
    lines = ["purity report"]
    for name, verdict in report.verdicts.items():
        mark = "pure" if verdict else "not pure"
        line = f"  {name:<12} {mark}"
        wit = report.witnesses.get(name)
        if wit:
            detail = ", ".join(f"{k}={v}" for k, v in wit.items() if k != "kind")
            line += f"   [{wit['kind']}{': ' + detail if detail else ''}]"
        lines.append(line)
    lines.append(f"consensus: {'yes' if report.consensus else 'NO (defect!)'}")
    return "\n".join(lines) + "\n"


def _summary_text(summary: HarnessSummary) -> str:
    lines = [
        f"modulus {summary.modulus}, {summary.trials} trials, seed {summary.seed}",
        f"  pure: {summary.pure_count}   not pure: {summary.trials - summary.pure_count}",
        f"  disagreements: {summary.disagreements}",
        "  not pure by checker: " + ", ".join(
            f"{name} {count}" for name, count in summary.checker_false_counts.items()),
    ]
    if summary.disagreements:
        lines.append(f"  failing trials: {list(summary.disagreement_trials)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _bounds_from_args(args) -> Bounds:
    return Bounds(pp_free=args.pp_free, pp_exists=args.pp_exists,
                  pp_rows=args.pp_rows, fp_depth=args.fp_depth)


def cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and text that is not UTF-8;
        # RecursionError, arrays nested too deep for the decoder
        print(f"error: cannot read document: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        seq = parse_sequence_document(doc)
    except InputError as exc:
        print(f"error: invalid sequence: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        bounds = _bounds_from_args(args)
        bounds.validate()
        check_fp_budget(seq.modulus, bounds.fp_depth)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = purity_report(seq, bounds)
    out = report_document(seq, report)
    if _pick_format(args) == "json":
        sys.stdout.write(dumps(out))
    else:
        sys.stdout.write(_report_text(report))
    return EXIT_OK if report.consensus else EXIT_FAILED


def cmd_random(args) -> int:
    try:
        _check_modulus(args.modulus)
        bounds = _bounds_from_args(args)
        summary = equivalence_harness(args.modulus, args.trials, args.seed,
                                      bounds=bounds, jobs=args.jobs,
                                      max_gens=args.max_gens)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    doc = {"kind": "harness-summary", "version": __version__, **summary.to_dict()}
    if _pick_format(args) == "json":
        sys.stdout.write(dumps(doc))
    else:
        sys.stdout.write(_summary_text(summary))
    return EXIT_OK if summary.disagreements == 0 else EXIT_FAILED


def run_all_suites(modulus: int, trials: int, seed: int):
    from .suites import run_all_suites as run  # loads funcat, which `lemmas` alone needs
    return run(modulus, trials, seed)


def cmd_lemmas(args) -> int:
    try:
        if args.modulus < 1 or args.trials < 1:
            raise InputError("modulus and trials must be positive")
        if args.trials > MAX_TRIALS:
            raise InputError(f"{args.trials} trials are over the budget of {MAX_TRIALS}")
        _check_modulus(args.modulus)
        objects = len(divisors(args.modulus))
        if objects > MAX_LEMMA_OBJECTS:
            raise InputError(f"modulus {args.modulus} has {objects} divisors, over the "
                             f"{MAX_LEMMA_OBJECTS} objects the lemma suites support")
        results = run_all_suites(args.modulus, args.trials, args.seed)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    doc = {
        "kind": "lemma-suites",
        "version": __version__,
        "modulus": args.modulus,
        "trials": args.trials,
        "seed": args.seed,
        "suites": [
            {"name": r.name, "passed": r.passed, "total": r.total,
             "failures": list(r.failures)}
            for r in results
        ],
        "all_passed": all(r.ok for r in results),
    }
    if _pick_format(args) == "json":
        sys.stdout.write(dumps(doc))
    else:
        for r in results:
            mark = "ok" if r.ok else "FAILED"
            sys.stdout.write(f"{r.name:<20} {r.passed}/{r.total} {mark}\n")
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAILED


def cmd_example(args) -> int:
    if args.name not in BUNDLED_EXAMPLES:
        known = ", ".join(sorted(BUNDLED_EXAMPLES))
        print(f"error: unknown example {args.name!r} (known: {known})", file=sys.stderr)
        return EXIT_INVALID
    text = dumps(BUNDLED_EXAMPLES[args.name])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_bounds_flags(p: argparse.ArgumentParser):
    p.add_argument("--pp-free", type=int, default=1, help="free variables in pp catalog")
    p.add_argument("--pp-exists", type=int, default=2, help="max bound variables in pp catalog")
    p.add_argument("--pp-rows", type=int, default=2, help="max rows in pp catalog")
    p.add_argument("--fp-depth", type=int, default=2, help="max generators for fp-functor catalog")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpure",
        description="purity checkers for short exact sequences of finite Z/N-modules")
    parser.add_argument("--version", action="version", version=f"zpure {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all purity checkers on a sequence document")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "text"])
    _add_bounds_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("random", help="randomized checker-agreement harness")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-gens", type=int, default=3)
    p.add_argument("--format", choices=["json", "text"])
    _add_bounds_flags(p)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("lemmas", help="functor-level isomorphism suites")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"])
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("example", help="write a bundled sequence document")
    p.add_argument("--name", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
