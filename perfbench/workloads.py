"""The three benchmark workloads: inputs, one repetition, and the output gates.

``scan``     conjecture_scan(3, P) with a fresh checkpoint and worker pool.
``catalog``  enumerate_classes, ribbon_table and amphicheiral_crosscheck
             with the family-index cache cleared first.
``certify``  a closed loop of one client sending seeded single-knot
             queries through ``cli.execute(..., "--format", "json")``.

Every call into the package goes through a module attribute
(``enumeration.conjecture_scan``, ``cli.execute``), so the wrappers that
:mod:`spans` installs see it.  A repetition is timed while it runs; its
output is judged afterwards, outside the timing.  The gates list the
failed checks, and a repetition counts the operations they cover as
failed.  The inputs come
only from the seed and the sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path

from twobridge import cli, conway, enumeration, families

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Sizes of every workload; "smoke" runs the same code on tiny inputs.
SIZES = {
    "full": {
        "scan": {"p_min": 3, "p_max": 151},
        "catalog": {"classes": 17, "table": 24, "crosscheck": 14},
        "certify": {"p_max": 571, "lookup_crossings": [8, 26], "large": 20, "random": 60},
    },
    "smoke": {
        "scan": {"p_min": 3, "p_max": 31},
        "catalog": {"classes": 8, "table": 10, "crosscheck": 6},
        "certify": {"p_max": 61, "lookup_crossings": [8, 12], "large": 2, "random": 4},
    },
}

# Crossing number above which ``member`` skips the generator-index lookup.
LOOKUP_LIMIT = 32


def reference() -> dict:
    """The recorded outputs the gates compare against (see make_reference.py)."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class Rep:
    """Outcome of one repetition: operations attempted, failed, per-op start and latency."""

    ops: int
    failed: int
    latencies_s: list[float] = field(default_factory=list)
    starts_s: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# --- scan -------------------------------------------------------------------


def scan_inputs(seed: int, size: dict) -> dict:
    # An exhaustive range has no random part: the seed changes nothing here.
    return {"p_min": size["p_min"], "p_max": size["p_max"]}


def scan_digest(records) -> str:
    return hashlib.sha256("".join(r.to_json_line() + "\n" for r in records).encode()).hexdigest()


def check_scan(records, inputs: dict) -> list[str]:
    """Failures of a scan: counterexample candidates, or output differing from the reference."""
    problems = [f"p={r.p}: non_family {list(r.non_family)}" for r in records if r.non_family]
    key = f"{inputs['p_min']}..{inputs['p_max']}"
    expected = reference()["scan_sha256"].get(key)
    if expected is None:
        problems.append(f"no reference digest for p = {key}")
    elif scan_digest(records) != expected:
        problems.append(f"scan output for p = {key} differs from the reference digest")
    return problems


def no_pause() -> None:
    """Where the harness may probe the machine between operations; by default nothing."""


def scan_run(inputs: dict, workdir: Path, jobs: int, pause=no_pause):
    fd, name = tempfile.mkstemp(prefix="scan-", suffix=".jsonl", dir=workdir)
    os.close(fd)
    checkpoint = Path(name)
    try:
        records = enumeration.conjecture_scan(
            inputs["p_min"], inputs["p_max"], checkpoint=str(checkpoint), jobs=jobs
        )
    finally:
        checkpoint.unlink(missing_ok=True)
    return records


def scan_judge(inputs: dict, records) -> Rep:
    ops = sum(r.q_tested for r in records)
    problems = check_scan(records, inputs)
    return Rep(ops, ops if problems else 0, notes=problems)


# --- catalog ----------------------------------------------------------------


def ernst_sumners(c: int) -> int:
    """Number of 2-bridge knot classes (mirror pairs once) with crossing number c >= 3."""
    m = c % 4
    if m == 0:
        v = 2 ** (c - 3) + 2 ** ((c - 4) // 2)
    elif m == 1:
        v = 2 ** (c - 3) + 2 ** ((c - 3) // 2)
    elif m == 2:
        v = 2 ** (c - 3) + 2 ** ((c - 4) // 2) - 1
    else:
        v = 2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1
    return v // 3


def catalog_inputs(seed: int, size: dict) -> dict:
    # Crossing bounds only: the seed changes nothing here.
    return dict(size)


def catalog_ops(classes, rows, xrows) -> int:
    """Classes produced: enumerated classes, ribbon classes, amphicheiral classes."""
    return len(classes) + sum(r.total for r in rows) + sum(r.amphicheiral for r in xrows)


def check_catalog(classes, rows, xrows, inputs: dict) -> list[str]:
    problems = []
    by_crossing = Counter(cls.crossing for cls in classes)
    for c in sorted(set(by_crossing) | set(range(3, inputs["classes"] + 1))):
        want = ernst_sumners(c) if 3 <= c <= inputs["classes"] else 0
        if by_crossing[c] != want:
            problems.append(f"enumerate_classes: {by_crossing[c]} classes at crossing {c}, expected {want}")
    got = [[r.crossing, r.family0, r.family1, r.family2, r.total] for r in rows]
    want_rows = [row for row in reference()["ribbon_table"] if row[0] <= inputs["table"]]
    if got != want_rows:
        problems.append(f"ribbon_table({inputs['table']}) differs from the reference table")
    if [r.crossing for r in xrows] != list(range(4, inputs["crosscheck"] + 1, 2)):
        problems.append("amphicheiral_crosscheck returned the wrong crossings")
    problems += [f"crosscheck unequal at crossing {r.crossing}" for r in xrows if not r.equal]
    return problems


def catalog_run(inputs: dict, workdir: Path, jobs: int, pause=no_pause):
    families.build_family_index.cache_clear()  # every CLI process builds the index cold
    classes = enumeration.enumerate_classes(inputs["classes"])
    pause()
    rows = enumeration.ribbon_table(inputs["table"])
    pause()
    xrows = enumeration.amphicheiral_crosscheck(inputs["crosscheck"])
    return classes, rows, xrows


def catalog_judge(inputs: dict, output) -> Rep:
    classes, rows, xrows = output
    ops = catalog_ops(classes, rows, xrows)
    problems = check_catalog(classes, rows, xrows, inputs)
    return Rep(ops, ops if problems else 0, notes=problems)


# --- certify ----------------------------------------------------------------

MEMBER_COMMANDS = ("cg-check", "sigma", "member", "partial")
RANDOM_COMMANDS = ("cg-check", "sigma", "member")


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def family_pool(size: dict) -> tuple[dict[int, list], list]:
    """Family members p^2/q with p <= p_max, made with ``generate``.

    Returns members by crossing for the lookup crossings, and the members
    whose crossing exceeds LOOKUP_LIMIT (``member`` skips the lookup).
    """
    lo, hi = size["lookup_crossings"]
    by_crossing: dict[int, list] = {c: [] for c in range(lo, hi + 1)}
    large: list = []
    params = [(0, ps) for s in range(1, (hi - 2) // 2 + 1) for ps in _compositions(s)]
    params += [(f, (a, b)) for f in (1, 2) for a in range(-30, 31) for b in range(-30, 31) if a and b]
    for fam, ps in params:
        _, frac = families.generate(fam, ps)
        if frac.is_link:
            continue
        p = isqrt(frac.p)
        if p * p != frac.p or not 3 <= p <= size["p_max"]:
            continue
        crossing = conway.canonical_class(frac).crossing
        knot = (p, frac.q)
        if crossing in by_crossing:
            by_crossing[crossing].append(knot)
        elif crossing > LOOKUP_LIMIT:
            large.append(knot)
    return by_crossing, large


def certify_inputs(seed: int, size: dict) -> dict:
    """Knots (kind, p, q) and the shuffled query list of (knot index, command)."""
    rng = random.Random(seed)
    by_crossing, large = family_pool(size)
    knots = [("member",) + rng.choice(by_crossing[c]) for c in sorted(by_crossing) if by_crossing[c]]
    knots += [("member",) + rng.choice(large) for _ in range(size["large"] if large else 0)]
    # Random knots are drawn among non-members, so that no seed adds index
    # builds of its own; one that passes the obstruction is a counterexample.
    # Knot i takes its p from the i-th stratum of the odd p, so every seed
    # has the same spread of sizes.
    odd = range(3, size["p_max"] + 1, 2)
    n = size["random"]
    for i in range(n):
        stratum = odd[i * len(odd) // n:(i + 1) * len(odd) // n]
        while True:
            p = rng.choice(stratum)
            q = rng.randrange(1, p * p)
            if gcd(q, p) == 1 and not families.is_family_member(p, q, family_lookup=False).member:
                knots.append(("random", p, q))
                break
    queries = [
        (k, cmd)
        for k, (kind, _, _) in enumerate(knots)
        for cmd in (MEMBER_COMMANDS if kind == "member" else RANDOM_COMMANDS)
    ]
    rng.shuffle(queries)
    return {"knots": knots, "queries": queries}


def check_certify(knots, answers: dict) -> set[tuple[int, str]]:
    """Queries failing a check.  ``answers[(k, cmd)]`` is (exit code, stdout)."""
    bad: set[tuple[int, str]] = set()

    def parsed(k: int, cmd: str, codes: tuple[int, ...]):
        rc, out = answers.get((k, cmd), (None, ""))
        if rc not in codes:
            bad.add((k, cmd))
            return None
        try:
            return json.loads(out)
        except json.JSONDecodeError:
            bad.add((k, cmd))
            return None

    for k, (kind, p, q) in enumerate(knots):
        report = parsed(k, "cg-check", (0, 1))
        terms = parsed(k, "sigma", (0,))
        member = parsed(k, "member", (0,))
        if report is not None:
            rc = answers[(k, "cg-check")][0]
            if (report["p"], report["q"]) != (p, q) or report["passes"] != (rc == 0):
                bad.add((k, "cg-check"))
            elif kind == "member" and not report["passes"]:
                bad.add((k, "cg-check"))
            if terms is not None and terms["terms"] != report["terms"]:
                bad.update({(k, "cg-check"), (k, "sigma")})
        if member is not None:
            if kind == "member" and member["member"] is not True:
                bad.add((k, "member"))
            if report is not None and report["passes"] and member["member"] is not True:
                bad.update({(k, "cg-check"), (k, "member")})  # a counterexample
        if kind == "member":
            partial = parsed(k, "partial", (0,))
            if partial is not None and partial["determinant"] != p:
                bad.add((k, "partial"))
    return bad


def certify_run(inputs: dict, workdir: Path, jobs: int, pause=no_pause):
    knots = inputs["knots"]
    families.build_family_index.cache_clear()
    answers: dict = {}
    starts = []
    latencies = []
    notes = []
    clock = time.perf_counter
    for k, cmd in inputs["queries"]:
        _, p, q = knots[k]
        argv = [cmd, str(p), str(q), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                rc = cli.execute(argv)
            except Exception as exc:  # counted as a failed query, the loop goes on
                rc = None
                notes.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            starts.append(t0)
            latencies.append(clock() - t0)
        answers[(k, cmd)] = (rc, out.getvalue())
        pause()
    return answers, starts, latencies, notes


def certify_judge(inputs: dict, output) -> Rep:
    answers, starts, latencies, notes = output
    knots = inputs["knots"]
    bad = check_certify(knots, answers)
    notes += [f"{cmd} {knots[k][1]} {knots[k][2]} failed its check" for k, cmd in sorted(bad)]
    return Rep(len(inputs["queries"]), len(bad), latencies, starts, notes)


# name -> (make inputs, run one repetition (timed), judge its output (untimed))
WORKLOADS = {
    "scan": (scan_inputs, scan_run, scan_judge),
    "catalog": (catalog_inputs, catalog_run, catalog_judge),
    "certify": (certify_inputs, certify_run, certify_judge),
}
