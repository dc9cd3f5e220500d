"""Workload inputs and output checks.

Each workload turns a seed into ``ordsgp`` command lines and checks what
those commands printed or wrote.  The checks use no ordsgp code: structure
axioms and isomorphism classes are recomputed here from the raw tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

THEOREM_COUNT = 15
ORDER3_TOTAL = 992  # labelled ordered semigroups of order 1, 2 and 3
ORDER4_DISCRETE = 3492  # associative tables of order 4
SAMPLE_COUNT = 100  # sampled non-discrete order-4 structures per catalog
ORDER4_ISO_CLASSES = 4753  # ordered semigroups of order 4 up to isomorphism

POOL_WORKERS = 2  # worker count of the process-pool pass in a traced catalog-verify run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "enumerate"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-verify", "verify"),
        Workload("enumerate-iso", "enumerate"),
    )
}


# -- structures, checked without ordsgp --------------------------------------

def relabel(table, leq, perm):
    """Structure with element i renamed perm[i]."""
    n = len(table)
    t = [[0] * n for _ in range(n)]
    o = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            t[perm[i]][perm[j]] = perm[table[i][j]]
            o[perm[i]][perm[j]] = leq[i][j]
    return t, o


def axiom_failure(table, leq):
    """First broken ordered-semigroup axiom, or None."""
    n = len(table)
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
        return "shape"
    rng = range(n)
    if any(table[table[a][b]][c] != table[a][table[b][c]] for a in rng for b in rng for c in rng):
        return "associativity"
    if not all(leq[a][a] for a in rng):
        return "reflexivity"
    if any(a != b and leq[a][b] and leq[b][a] for a in rng for b in rng):
        return "antisymmetry"
    if any(leq[a][b] and leq[b][c] and not leq[a][c] for a in rng for b in rng for c in rng):
        return "transitivity"
    for a in rng:
        for b in rng:
            if leq[a][b]:
                for x in rng:
                    if not (leq[table[x][a]][table[x][b]] and leq[table[a][x]][table[b][x]]):
                        return "compatibility"
    return None


def iso_class(table, leq):
    """Least relabelled (table, order) over all permutations."""
    n = len(table)
    best = None
    for perm in permutations(range(n)):
        t, o = relabel(table, leq, perm)
        key = (tuple(map(tuple, t)), tuple(map(tuple, o)))
        if best is None or key < best:
            best = key
    return best


# -- commands per workload ----------------------------------------------------

def verify_argv(seed):
    return [
        "verify", "--theorem", "all", "--max-order", "4",
        "--sample-count", str(SAMPLE_COUNT), "--sample-seed", str(seed),
    ]


def enumerate_argv(workdir):
    return ["enumerate", "--order", "4", "--up-to-iso", "--out", str(Path(workdir) / "iso4.ndjson")]


# -- output checks ------------------------------------------------------------

def check_verify(stdout, seed):
    """(errors, structures the report says were verified)."""
    report = json.loads(stdout)
    expected_structures = ORDER3_TOTAL + ORDER4_DISCRETE + SAMPLE_COUNT
    errors = []
    if report["structures"] != expected_structures:
        errors.append(f"structures {report['structures']} != {expected_structures}")
    if report["totals"]["DISCREPANCY"] or report["discrepancies"]:
        errors.append(f"{report['totals']['DISCREPANCY']} DISCREPANCY verdicts")
    if sum(report["totals"].values()) != expected_structures * THEOREM_COUNT:
        errors.append("verdict totals do not cover every structure and suite")
    if len(report["by_theorem"]) != THEOREM_COUNT:
        errors.append(f"{len(report['by_theorem'])} suites reported")
    config = report["config"]
    if (config["max_order"], config["sample_count"], config["sample_seed"]) != (4, SAMPLE_COUNT, seed):
        errors.append(f"config {config} does not match the command")
    return errors, report["structures"]


def check_enumerate(workdir):
    """(errors, classes the manifest says were written)."""
    path = Path(workdir) / "iso4.ndjson"
    errors = []
    manifest = json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))
    if manifest["count"] != ORDER4_ISO_CLASSES:
        errors.append(f"manifest counts {manifest['count']} classes, not {ORDER4_ISO_CLASSES}")
    classes = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines:
        d = json.loads(line)
        failure = axiom_failure(d["table"], d["leq"])
        if d["order"] != 4 or failure:
            errors.append(f"invalid structure ({failure or 'order'}): {line}")
            break
        classes.add(iso_class(d["table"], d["leq"]))
    if len(lines) != ORDER4_ISO_CLASSES or len(classes) != len(lines):
        errors.append(f"{len(lines)} lines hold {len(classes)} isomorphism classes")
    return errors, manifest["count"]
