"""Command-line interface.

Every verb prints exact rational text (never floating point); --json
switches to a stable JSON rendering.  Answers are carried in the output,
never in the exit status: 0 means the command ran, 1 means a `verify`
suite failed, 2 means malformed input, 3 means an internal error: an
arithmetic, iteration, memory or recursion limit was hit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import verification
from .decide import ScanMode, has_umpp_epimorphism, is_null_homotopic, scan
from .reflections import CapExceededError
from .seqs import (
    cyclic_s_sequence,
    decompose,
    format_sequence,
    s_sequence,
    t_sequence,
)
from .slopes import (
    ONE,
    ZERO,
    cf_expand,
    fundamental_endpoints,
    parse_slope,
    schubert_equivalent,
)
from .words import format_word, half_relator, relator

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

#: -1/3 or -inf, which argparse would take for an option; main passes it
#: on with the minus sign U+2212, which parse_slope reads as "-".
_NEGATIVE_SLOPE = re.compile(r"-(\d+/\d+|inf)")


def _emit(args, text_lines, json_obj) -> None:
    if args.json:
        _print_json(json_obj)
    else:
        _print_lines(text_lines)


def _print_json(json_obj) -> None:
    print(json.dumps(json_obj, indent=None, separators=(",", ":")))


def _print_lines(text_lines) -> None:
    for line in text_lines:
        print(line)


def _cmd_word(args) -> int:
    r = parse_slope(args.r)
    u = relator(r)
    lines = [f"u = {format_word(u)}"]
    obj = {"r": str(r), "u": format_word(u)}
    if ZERO < r <= ONE:
        hat = half_relator(r)
        lines.append(f"uhat = {format_word(hat)}")
        obj["uhat"] = format_word(hat)
    _emit(args, lines, obj)
    return EXIT_OK


def _cmd_seq(args) -> int:
    r = parse_slope(args.r)
    if r.is_infinite or r <= ZERO:
        raise ValueError("seq needs a positive rational slope")
    s = s_sequence(r)
    cs = cyclic_s_sequence(r)
    lines = [f"S = {format_sequence(s)}", f"CS = {cs}"]
    obj = {"r": str(r), "s": list(s), "cs": list(cs.terms)}
    if len(cf_expand(r)) >= 2:
        t = t_sequence(r)
        lines.append(f"T = {format_sequence(t)}")
        obj["t"] = list(t)
    if ZERO < r < ONE:
        d = decompose(r)
        r1, r2 = fundamental_endpoints(r)
        lines += [
            f"S1 = {format_sequence(d.s1)}",
            f"S2 = {format_sequence(d.s2)}",
            f"r1 = {r1}",
            f"r2 = {r2}",
        ]
        obj.update({"s1": list(d.s1), "s2": list(d.s2),
                    "r1": str(r1), "r2": str(r2)})
    _emit(args, lines, obj)
    return EXIT_OK


# A trace has O(steps) text and JSON, so the verbs that print one build
# only the rendering they print.
def _trace_lines(args, trace) -> list[str]:
    if not args.trace:
        return []
    return [f"  {refl} -> {image}" for refl, image in trace.steps]


def _cmd_reduce(args) -> int:
    s = parse_slope(args.s)
    r = parse_slope(args.r)
    verdict = is_null_homotopic(s, r)
    rep = verdict.canonical_representative
    if args.json:
        _print_json({"s": str(s), "r": str(r), "representative": str(rep),
                     "trace": verdict.trace.to_json_obj()})
    else:
        _print_lines([f"representative = {rep}"] + _trace_lines(args, verdict.trace))
    return EXIT_OK


def _cmd_null(args) -> int:
    verdict = is_null_homotopic(parse_slope(args.s), parse_slope(args.r))
    if args.json:
        _print_json(verdict.to_json_obj())
    else:
        _print_lines([f"null-homotopic = {'true' if verdict.answer else 'false'}",
                      f"representative = {verdict.canonical_representative}",
                      f"route = {verdict.route.value}"]
                     + _trace_lines(args, verdict.trace))
    return EXIT_OK


def _cmd_epi(args) -> int:
    s = parse_slope(args.s)
    r = parse_slope(args.r)
    answer = has_umpp_epimorphism(s, r)
    lines = [f"epimorphism = {'true' if answer else 'false'}"]
    _emit(args, lines, {"s": str(s), "r": str(r), "answer": answer})
    return EXIT_OK


def _cmd_scan(args) -> int:
    r = parse_slope(args.r)
    hits = scan(r, args.max_den, ScanMode(args.mode))
    lines = [" ".join(str(s) for s in hits)]
    _emit(args, lines, {"r": str(r), "mode": args.mode, "max_den": args.max_den,
                        "slopes": [str(s) for s in hits]})
    return EXIT_OK


def _cmd_equiv(args) -> int:
    r = parse_slope(args.r)
    r2 = parse_slope(args.r2)
    answer = schubert_equivalent(r, r2)
    lines = [f"equivalent = {'true' if answer else 'false'}"]
    _emit(args, lines, {"r": str(r), "r2": str(r2), "equivalent": answer})
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verification.run_all(max_den=args.max_den)
    passed = all(res.passed for res in results)
    width = max(len(res.name) for res in results)
    lines = [
        f"{res.name.ljust(width)}  {'PASS' if res.passed else 'FAIL'}  {res.detail}"
        for res in results
    ]
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    obj = {"max_den": args.max_den,
           "checks": [{"name": res.name, "passed": res.passed,
                       "detail": res.detail} for res in results],
           "passed": passed}
    _emit(args, lines, obj)
    return EXIT_OK if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Exact decision procedures for simple loops on 2-bridge spheres.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("word", help="relator word of a slope")
    p.add_argument("r")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("seq", help="S/T-sequences and the (S1,S2) splitting")
    p.add_argument("r")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("reduce", help="orbit representative of s at r, as null reports it")
    p.add_argument("s")
    p.add_argument("r")
    p.add_argument("--trace", action="store_true", help="print reflection steps")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("null", help="is the loop of slope s null-homotopic for K(r)?")
    p.add_argument("s")
    p.add_argument("r")
    p.add_argument("--trace", action="store_true", help="print reflection steps")
    p.set_defaults(func=_cmd_null)

    p = sub.add_parser("epi", help="is there an upper-meridian-pair-preserving "
                                   "epimorphism G(K(s)) -> G(K(r))?")
    p.add_argument("s")
    p.add_argument("r")
    p.set_defaults(func=_cmd_epi)

    p = sub.add_parser("scan", help="all slopes up to a denominator bound "
                                    "satisfying a predicate")
    p.add_argument("r")
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--mode", choices=[mode.value for mode in ScanMode],
                   default=ScanMode.NULLHOMOTOPY.value)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("equiv", help="do two slopes present the same link?")
    p.add_argument("r")
    p.add_argument("r2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("verify", help="run the invariant suites up to a bound")
    p.add_argument("--max-den", type=int, default=20)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(
        ["−" + a[1:] if _NEGATIVE_SLOPE.fullmatch(a) else a for a in argv])
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OverflowError, CapExceededError, MemoryError, RecursionError) as exc:
        kind, exc_args = type(exc), exc.args  # allocates nothing while the frames live
    print(f"internal error: {exc_args[0] if exc_args else kind.__name__}", file=sys.stderr)
    return EXIT_INTERNAL
