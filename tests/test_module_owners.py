"""Each cross-cutting decision has one owning module.

The exhaustive catalog cap is named only in ``enumeration.py``, so raising
it is a change to one module, and ``core.py`` imports no other ordsgp
module, so the structure layer knows nothing of which orders are
enumerated.  The named readings live in ``predicates.py`` above
``congruences.py``, and the harness reaches them only through
``predicates``; every import is at module level, so a cycle between
modules fails at import time.  ``OrderedSemigroup.cached`` has one caller,
the ``derived`` decorator of ``core.py``, and that decorator is applied only
to module-level functions; in ``core.py`` it is applied only to functions of
S alone, so a per-element fact is one tuple per structure, never an entry
keyed on an element.  No ``lru_cache`` function takes a structure S: a
process-wide memo is keyed on matrices or ints, and a memo keyed first on
a table or order matrix is bounded by ``core._MEMO_SIZE``, and every memo
is read again on a suite pass, so none duplicates another store.  A vocabulary
predicate of ``predicates.py`` is evaluated only through ``read``, so each
one is computed once per structure, and ``predicates.py`` names no ``leq``:
it reads the order through other modules.
"""

import ast
import importlib
from pathlib import Path

from ordsgp.enumeration import GenerationConfig, enumerate_ordered_semigroups
from ordsgp.harness import run_suite

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ordsgp"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names(tree):
    """Every identifier the module uses, binds, reads as an attribute or
    imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))


def ordsgp_imports(tree):
    """Each import of an ordsgp module, relative ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").partition(".")[0] == "ordsgp":
                yield ast.unparse(node)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.partition(".")[0] == "ordsgp")


def imported_modules(tree):
    """The name in the package of each ordsgp module an import reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ordsgp")):
            module = (node.module or "").removeprefix("ordsgp").lstrip(".")
            yield from [module] if module else (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                a.name.removeprefix("ordsgp.") for a in node.names if a.name.startswith("ordsgp.")
            )


def test_only_enumeration_names_the_catalog_cap():
    owners = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "EXHAUSTIVE_TABLE_CAP" in set(names(parse(path)))
    ]
    assert owners == ["enumeration.py"]


def test_core_imports_no_other_ordsgp_module():
    assert list(ordsgp_imports(parse(PACKAGE / "core.py"))) == []


def test_no_import_below_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        top = {id(node) for node in tree.body}
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
        assert nested == [], (path.name, nested)


def test_congruences_imports_no_reading_layer():
    imported = set(imported_modules(parse(PACKAGE / "congruences.py")))
    assert not imported & {"predicates", "harness", "cli"}, imported


def test_harness_imports_nothing_from_congruences():
    assert "congruences" not in set(imported_modules(parse(PACKAGE / "harness.py")))


def test_cached_is_called_only_by_the_derived_decorator():
    core = parse(PACKAGE / "core.py")
    derived = next(
        node for node in core.body if isinstance(node, ast.FunctionDef) and node.name == "derived"
    )
    inside = {id(node) for node in ast.walk(derived)}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(core if path.name == "core.py" else parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cached"
            ):
                calls.append((path.name, node.lineno, id(node) in inside))
    assert calls and all(ok for _, _, ok in calls), calls


def test_derived_decorates_only_module_level_functions():
    # The decorated function is the cache key: a nested def or a lambda is
    # a new key on every call, so its cache would never hit and only grow.
    decorated = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "derived":
                raise AssertionError((path.name, node.lineno, "derived called directly"))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(ast.unparse(d) == "derived" for d in node.decorator_list):
                assert id(node) in top, (path.name, node.lineno)
                decorated += 1
    assert decorated > 0


def test_core_derived_functions_take_the_structure_alone():
    signatures = [
        (node.name, ast.unparse(node.args))
        for node in parse(PACKAGE / "core.py").body
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d) == "derived" for d in node.decorator_list)
    ]
    assert signatures and all(args == "S" for _, args in signatures), signatures


def lru_memos():
    """(module path, function name, decorator, parameter names) of each
    ``lru_cache`` function of the package."""
    return [
        (path, node.name, ast.unparse(decorator), [arg.arg for arg in node.args.args])
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if "lru_cache" in ast.unparse(decorator)
    ]


def test_lru_cache_functions_take_no_structure():
    # a process-wide memo keyed on a structure would keep every structure
    # alive; a fact of S is ``derived`` and cached on S, a fact of the
    # table alone is an lru_cache of the table
    memos = [(path.name, name, params) for path, name, _, params in lru_memos()]
    assert len(memos) > 5 and not [m for m in memos if "S" in m[2]], memos


def matrix_memos():
    """(module path, function name, decorator) of each ``lru_cache``
    function whose first parameter is a table or order matrix."""
    return [
        (path, name, decorator)
        for path, name, decorator, params in lru_memos()
        if params[:1] in (["table"], ["tab"], ["lm"])
    ]


def test_matrix_memos_share_the_one_bound():
    # a memo keyed first on a table or order matrix holds an entry per
    # matrix of the catalog, or per pair of one, so each is bounded by
    # ``core._MEMO_SIZE``, never unbounded; the key may hold more than the
    # matrix, as the classes of a table with its automorphisms do
    bounds = [(path.name, name, decorator) for path, name, decorator in matrix_memos()]
    assert len(bounds) > 5, bounds
    assert {"_table_classes", "_interned"} <= {name for _, name, _ in bounds}, bounds
    assert [b for b in bounds if b[2] != "lru_cache(maxsize=_MEMO_SIZE)"] == [], bounds


def test_every_matrix_memo_is_read_again():
    # a memo whose entries are never read a second time is a second store
    # of a fact that has one elsewhere, or a cache in front of a caller that
    # is itself cached: over a suite pass and two up-to-iso walks, each
    # memo must be hit.  The memos are not cleared, so a matrix memo must
    # gain hits whether the process has met these tables before or not; a
    # memo keyed on an int, such as ``_order_masks(n)``, is asked again only
    # by a process that has not met every table of order n, so its hits
    # are counted from the start of the process
    memos = {
        f"{path.stem}.{name}": getattr(importlib.import_module(f"ordsgp.{path.stem}"), name)
        for path, name, _, _ in lru_memos()
    }
    matrix = {f"{path.stem}.{name}" for path, name, _ in matrix_memos()}
    before = {name: memos[name].cache_info().hits for name in matrix}
    run_suite("all", max_order=3, workers=1)
    for _ in range(2):
        for _ in enumerate_ordered_semigroups(GenerationConfig(3, up_to_iso=True)):
            pass
    unread = sorted(
        name for name, memo in memos.items() if memo.cache_info().hits == before.get(name, 0)
    )
    assert len(matrix) > 5 and len(memos) > len(matrix) and unread == [], unread


def test_vocabulary_functions_are_reached_only_through_read():
    # a ``_p_*`` function is named only as a value of the PREDICATES table,
    # so no function body calls one, directly or through another table, and
    # every check goes through ``read`` and its cache on the structure
    tree = parse(PACKAGE / "predicates.py")
    table = next(
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PREDICATES"
    )
    named = [node for node in table.value.values if isinstance(node, ast.Name)]
    assert sum(node.id.startswith("_p_") for node in named) > 10
    listed = {id(node) for node in named}
    stray = [
        (node.id, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id.startswith("_p_") and id(node) not in listed
    ]
    assert stray == []


def test_predicates_read_the_order_only_through_other_modules():
    # the order reaches the vocabulary only through ``relations`` (its
    # least-solution tables among them), the down-set closures and the
    # ideals
    assert "leq" not in set(names(parse(PACKAGE / "predicates.py")))
