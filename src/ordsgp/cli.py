"""Command-line front end: validate, analyze, enumerate, verify, search.

Exit codes: 0 success, 1 invalid structure (or search exhausted), 2 parse
error, 3 mathematical discrepancy, 64 usage error (including a request
beyond a size cap, such as ``analyze`` on a structure with more
non-idempotent elements than the subset searches accept or more classes of
its least semilattice congruence than the partition scan accepts; an empty
catalog or a negative sample count, such as ``verify --max-order 0``; and
an ``--out`` file that cannot be written, such as one in a missing
directory), 141 closed pipe (the reader of stdout stopped early, as
``ordsgp enumerate --order 4 | head -1`` does; 128 + SIGPIPE, the code a
shell gives a process that SIGPIPE ended).  Machine output goes to stdout
as canonical JSON (sorted keys, compact separators) so identical runs are
byte-identical; human-oriented notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .core import ValidationReport, structure_from_dict, structure_from_key, structure_key
from .enumeration import GenerationConfig, enumerate_ordered_semigroups
from .harness import THEOREM_IDS, _outcome, run_suite, search_model
from .predicates import PREDICATE_NAMES, named_predicate
from .relations import GREEN_KINDS, green, ordered_idempotents, regularity_profile, starred

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_DISCREPANCY = 3
EXIT_USAGE = 64
EXIT_CLOSED_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _structure_lines(structures):
    """The canonical JSON line of each structure, ``_dump(S.to_dict())``
    with a newline: the one structure writer.  A table is encoded when it
    differs from the last structure's, and each order once per call, so a
    catalog walk, which yields the orders of one table together, encodes
    each of its tables and orders once.  The two texts are kept apart: an
    int table such as ((1, 0), (0, 1)) equals an order of bools."""
    table = table_text = None
    orders = {}
    for S in structures:
        if S.table != table:
            table, table_text = S.table, _dump(S.table)
        order_text = orders.get(S.leq)
        if order_text is None:
            order_text = orders[S.leq] = _dump(S.leq)
        yield f'{{"leq":{order_text},"order":{S.order},"table":{table_text}}}\n'


def _load_structure(path):
    """Parsed structure or ValidationReport; exits 2 on parse problems."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read structure file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return structure_from_dict(payload)
    except ValueError as exc:
        print(f"malformed structure payload: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _check_writable(path):
    """Raise ValueError unless ``path`` can be written, touching nothing: an
    existing file is opened to append, a new one probed by an unnamed file."""
    try:
        if os.path.exists(path):
            open(path, "a").close()
        else:
            tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as exc:
        named = OSError(exc.errno, exc.strerror, path)  # the path, not the probe's name
        raise ValueError(f"cannot write output file: {named}") from None


def _report_dict(report):
    return {
        "ok": report.ok,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness)} for v in report.violations
        ],
    }


def cmd_validate(args):
    result = _load_structure(args.file)
    if isinstance(result, ValidationReport):
        print(_dump(_report_dict(result)))
        return EXIT_INVALID
    print(_dump({"ok": True, "key": structure_key(result)}))
    return EXIT_OK


def _analysis(S):
    profile = regularity_profile(S)
    return {
        "key": structure_key(S),
        "order": S.order,
        "ordered_idempotents": ordered_idempotents(S).elements(),
        "green": {k: green(S, k).to_lists() for k in GREEN_KINDS},
        "starred": {k: starred(S, k).to_lists() for k in GREEN_KINDS},
        "regularity": {
            "regular": list(profile.regular),
            "completely_regular": list(profile.completely_regular),
            "intra_regular": list(profile.intra_regular),
            "smallest_regular_power": list(profile.smallest_regular_power),
            "witness": list(profile.witness),
        },
        "predicates": {name: named_predicate(S, name).holds for name in PREDICATE_NAMES},
        "suites": {tid: _outcome(S, tid)[1] for tid in THEOREM_IDS},  # the verdict of each row
    }


def cmd_analyze(args):
    result = _load_structure(args.file)
    if isinstance(result, ValidationReport):
        print(_dump(_report_dict(result)))
        return EXIT_INVALID
    try:
        analysis = _analysis(result)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(_dump(analysis))
        return EXIT_OK
    print(f"structure {analysis['key']} (order {analysis['order']})")
    print(f"ordered idempotents: {analysis['ordered_idempotents']}")
    for k in GREEN_KINDS:
        print(f"green {k}: {analysis['green'][k]}  starred {k}*: {analysis['starred'][k]}")
    reg = analysis["regularity"]
    print(f"smallest regular powers: {reg['smallest_regular_power']}")
    for name in PREDICATE_NAMES:
        mark = "yes" if analysis["predicates"][name] else "no"
        print(f"predicate {name}: {mark}")
    for tid in THEOREM_IDS:
        print(f"suite {tid}: {analysis['suites'][tid]}")
    return EXIT_OK


def cmd_enumerate(args):
    mode = "discrete_only" if args.orders == "discrete" else "all_partial_orders"
    try:
        config = GenerationConfig(
            order=args.order, up_to_iso=args.up_to_iso, order_mode=mode, limit=args.limit
        )
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    count = 0
    try:
        for line in _structure_lines(enumerate_ordered_semigroups(config)):
            sink.write(line)
            count += 1
    finally:
        if args.out:
            sink.close()
    manifest = {
        "count": count,
        "config": {
            "order": args.order,
            "orders": args.orders,
            "up_to_iso": args.up_to_iso,
            "limit": args.limit,
        },
    }
    if args.out:
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_dump(manifest) + "\n")
    else:
        print(_dump(manifest), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    theorems = "all" if args.theorem == "all" else args.theorem
    try:
        if args.out:
            _check_writable(args.out)  # before the run, which may be long
        report = run_suite(
            theorems=theorems,
            max_order=args.max_order,
            sample_count=args.sample_count,
            sample_seed=args.sample_seed,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = report.to_dict()
    text = _dump(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    print(text)
    print(report.table(), file=sys.stderr)
    print(
        f"checked {report.structures} structures in {report.runtime_seconds:.2f}s: "
        f"{report.totals}",
        file=sys.stderr,
    )
    if report.totals["DISCREPANCY"]:
        offenders = (structure_from_key(e["structure_key"]) for e in report.discrepancies)
        sys.stderr.writelines(_structure_lines(offenders))
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_search(args):
    satisfy = [s for s in (args.satisfy or "").split(",") if s]
    violate = [s for s in (args.violate or "").split(",") if s]
    try:
        result = search_model(satisfy=satisfy, violate=violate, max_order=args.max_order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.found:
        sys.stdout.writelines(_structure_lines([result.structure]))
        print(
            f"found after {result.checked} structures: {structure_key(result.structure)}",
            file=sys.stderr,
        )
        return EXIT_OK
    print(_dump(result.to_dict()), file=sys.stderr)
    return EXIT_INVALID


def build_parser():
    parser = _Parser(prog="ordsgp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure file against the axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="full relation/predicate/suite profile")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="catalog of structures as NDJSON")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--orders", choices=("all", "discrete"), default="all")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run equivalence suites over the catalog")
    p.add_argument("--theorem", required=True, help="suite id or 'all'")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--sample-count", type=int, default=10_000)
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="first model meeting predicate constraints")
    p.add_argument("--satisfy", default="")
    p.add_argument("--violate", default="")
    p.add_argument("--max-order", type=int, default=3)
    p.set_defaults(fn=cmd_search)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "theorem", None) not in (None, "all") and args.theorem not in THEOREM_IDS:
        parser.error(f"unknown theorem id {args.theorem!r}")
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Point stdout at the null device, so that the interpreter's own
        # flush of what is still buffered cannot fail again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
