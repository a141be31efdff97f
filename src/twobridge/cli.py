"""Command-line surface.

Every subcommand maps to one library operation and prints deterministic
output: no timestamps, scan progress on stderr only, numbers exact
(fractions as "p/q", quarter counts as decimals with .25 granularity,
or as "m/4" strings in JSON).  Exit codes: 0 success, 1 mathematical
finding of interest (failed check, scan survivor outside the families,
unequal crosscheck), 2 usage or domain error, 141 (128 + SIGPIPE) when
the reader closes stdout before the output is written, as ``| head``
does; that exit prints no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from math import isqrt

from . import enumeration, families
from .casson_gordon import SigmaTerm, cg_condition, validate_pq, weighted_count
from .conway import cf_eval, cf_expand, parse_fraction, parse_word
from .errors import DomainError, InternalError

__all__ = ["main", "execute", "build_parser"]


def _halves_str(halves: int) -> str:
    whole, rem = divmod(halves, 2)
    return str(whole) if rem == 0 else f"{whole}.5"


def _quarters_str(quarters: int) -> str:
    whole, rem = divmod(quarters, 4)
    return str(whole) + {0: "", 1: ".25", 2: ".5", 3: ".75"}[rem]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_csv(rows: list[dict]) -> None:
    """A header of the JSON keys, then one line of JSON values per row."""
    print(",".join(rows[0]))
    for row in rows:
        print(",".join(json.dumps(value) for value in row.values()))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line."""
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="2-bridge knot fractions, the Casson-Gordon ribbon obstruction, "
        "and the known ribbon families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sigma", help="sigma(p, q, r) with area and weighted count")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--r", type=int, default=None, help="single r (default: all r = 1..p-1)")
    s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("cg-check", help="Casson-Gordon condition for the knot p^2/q")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--format", choices=("text", "json"), default="text")

    for name, help_ in (
        ("member", "membership of p^2/q in the known ribbon families"),
        ("partial", "partial knot of the family member p^2/q"),
    ):
        s = sub.add_parser(name, help=help_)
        s.add_argument("p", type=int, help="p (or the determinant p^2 with --det)")
        s.add_argument("q", type=int)
        s.add_argument(
            "--det",
            action="store_true",
            help="interpret the first argument as the determinant (an odd perfect square)",
        )
        s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("generate", help="build a family word and its fraction")
    s.add_argument("--family", required=True, choices=("0", "1", "2"))
    s.add_argument("--params", required=True, help="comma-separated integers, e.g. 1,-2")
    s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("eval", help='evaluate a Conway word like "C(2,1,3)"')
    s.add_argument("word")
    s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("expand", help="all-positive Conway expansion of p/q")
    s.add_argument("fraction", metavar="p/q")
    s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("table", help="ribbon-knot counts per crossing number")
    s.add_argument("--max-crossing", type=int, required=True)
    s.add_argument("--format", choices=("text", "csv", "json"), default="text")

    s = sub.add_parser("scan", help="conjecture-verification scan over determinants")
    s.add_argument("--min-p", type=int, required=True)
    s.add_argument("--max-p", type=int, required=True)
    s.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: the CPUs this process may use)",
    )
    s.add_argument("--checkpoint", default=None, help="JSONL checkpoint file (resumable)")
    s.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("crosscheck", help="amphicheiral counts vs family-0 counts at c+2")
    s.add_argument("--max-crossing", type=int, required=True)
    s.add_argument("--format", choices=("text", "csv", "json"), default="text")

    return parser


def _cmd_sigma(args) -> int:
    validate_pq(args.p, args.q)  # before the loop, which is empty for p < 2
    rs = [args.r] if args.r is not None else range(1, args.p)
    terms = [SigmaTerm.of(args.q, r, weighted_count(args.p, args.q, r)) for r in rs]
    if args.format == "json":
        _print_json({"p": args.p, "q": args.q, "terms": [t.to_json_dict() for t in terms]})
    else:
        for t in terms:
            print(
                f"r={t.r} area={_halves_str(t.area_halves)} "
                f"int={_quarters_str(t.quarters)} sigma={t.sigma}"
            )
    return 0


def _cmd_cg_check(args) -> int:
    report = cg_condition(args.p, args.q)
    if args.format == "json":
        _print_json(report.to_json_dict())
    elif report.passes:
        print(f"PASS {args.p * args.p}/{args.q}: sigma = +-1 for all r = 1..{args.p - 1}")
    else:
        t = report.terms[report.first_failure - 1]
        print(f"FAIL {args.p * args.p}/{args.q} at r={t.r}: sigma={t.sigma}")
    return 0 if report.passes else 1


def _resolve_pq(args) -> tuple[int, int]:
    if args.det:
        det = args.p
        p = isqrt(det) if det > 0 else 0
        if p * p != det or det % 2 == 0:
            raise DomainError(f"determinant {det} is not an odd perfect square")
        return p, args.q
    return args.p, args.q


def _cmd_member(args) -> int:
    p, q = _resolve_pq(args)
    mem = families.is_family_member(p, q)
    if args.format == "json":
        _print_json(mem.to_json_dict())
    else:
        print(f"knot {p * p}/{q} (p={p}, q={q})")
        print(f"member: {'yes' if mem.member else 'no'}")
        if mem.member:
            if mem.families:
                print("families: " + ",".join(str(f) for f in sorted(mem.families)))
            print(
                "conditions: "
                + "; ".join(f"{m} [q={m.q_rep}]" for m in mem.matches)
            )
            print(f"partial: {mem.partial.canonical}")
    return 0


def _cmd_partial(args) -> int:
    p, q = _resolve_pq(args)
    cls = families.partial_knot(p, q)
    if args.format == "json":
        _print_json(
            {
                "p": p,
                "q": q,
                "partial": str(cls.canonical),
                "determinant": cls.determinant,
                "crossing": cls.crossing,
            }
        )
    else:
        print(f"partial knot: {cls.canonical} (determinant {cls.determinant}, crossing {cls.crossing})")
    return 0


def _cmd_generate(args) -> int:
    try:
        params = [int(tok) for tok in args.params.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse --params {args.params!r}") from exc
    word, frac = families.generate(int(args.family), params)
    if args.format == "json":
        _print_json(
            {
                "family": args.family,
                "params": params,
                "word": str(word),
                "fraction": str(frac),
                "link": frac.is_link,
            }
        )
    else:
        print(f"{word} = {frac}" + (" (link)" if frac.is_link else ""))
    return 0


def _cmd_eval(args) -> int:
    word = parse_word(args.word)
    frac = cf_eval(word)
    if args.format == "json":
        _print_json({"word": str(word), "fraction": str(frac), "link": frac.is_link})
    else:
        print(str(frac) + (" (link)" if frac.is_link else ""))
    return 0


def _cmd_expand(args) -> int:
    frac = parse_fraction(args.fraction, allow_even=True)
    word = cf_expand(frac)
    if args.format == "json":
        _print_json({"fraction": str(frac), "word": str(word)})
    else:
        print(str(word))
    return 0


def _cmd_table(args) -> int:
    rows = enumeration.ribbon_table(args.max_crossing)
    if args.format == "json":
        _print_json([row.to_json_dict() for row in rows])
    elif args.format == "csv":
        _print_csv([row.to_json_dict() for row in rows])
    else:
        print(f"{'crossing':>8} {'family0':>8} {'family1':>8} {'family2':>8} {'total':>6}")
        for row in rows:
            print(
                f"{row.crossing:>8} {row.family0:>8} {row.family1:>8} "
                f"{row.family2:>8} {row.total:>6}"
            )
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_scan(args) -> int:
    start = time.perf_counter()

    def progress(rec):
        print(f"scan: p={rec.p} done at {time.perf_counter() - start:.1f} s", file=sys.stderr)

    records = enumeration.conjecture_scan(
        args.min_p,
        args.max_p,
        checkpoint=args.checkpoint,
        jobs=args.jobs or _usable_cpus(),
        progress=progress,
    )
    candidates = [(rec.p, q) for rec in records for q in rec.non_family]
    print(
        f"scan: {sum(rec.q_tested for rec in records)} knots tested, "
        f"{sum(len(rec.cg_passing) for rec in records)} pass the obstruction, "
        f"{len(candidates)} outside the families",
        file=sys.stderr,
    )
    if args.format == "json":
        for rec in records:
            print(rec.to_json_line())
    else:
        for rec in records:
            print(
                f"p={rec.p}: tested={rec.q_tested} passing={len(rec.cg_passing)} "
                f"non_family={len(rec.non_family)}"
            )
        if candidates:
            print("COUNTEREXAMPLE CANDIDATES (cg-passing, outside all families):")
            for p, q in candidates:
                print(f"  p={p} q={q}  (inspect with: twobridge cg-check {p} {q})")
        else:
            print(f"no counterexample candidates for p = {records[0].p}..{records[-1].p}")
    return 1 if candidates else 0


def _cmd_crosscheck(args) -> int:
    rows = enumeration.amphicheiral_crosscheck(args.max_crossing)
    if args.format == "json":
        _print_json([row.to_json_dict() for row in rows])
    elif args.format == "csv":
        _print_csv([row.to_json_dict() for row in rows])
    else:
        for row in rows:
            print(
                f"c={row.crossing}: amphicheiral={row.amphicheiral}, "
                f"family0(c+2)={row.family0_at_next}, equal={'yes' if row.equal else 'NO'}"
            )
    return 0 if all(row.equal for row in rows) else 1


_HANDLERS = {
    "sigma": _cmd_sigma,
    "cg-check": _cmd_cg_check,
    "member": _cmd_member,
    "partial": _cmd_partial,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "table": _cmd_table,
    "scan": _cmd_scan,
    "crosscheck": _cmd_crosscheck,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`execute` reuses; parsing leaves no state on it."""
    return build_parser()


def execute(argv: list[str] | None = None) -> int:
    """Parse argv and run the mapped operation; returns the exit code.

    The parser is built on the first call and reused.  Building it costs
    far more than one parse, so this helps callers that run many queries
    in one process (a client looping over ``execute``, the tests); a
    one-shot CLI process builds it once either way.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = execute()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # as a shell reports a process killed by SIGPIPE
    sys.exit(code)
