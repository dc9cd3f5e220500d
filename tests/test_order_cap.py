"""Every entry point that enumerates checks the catalog order the same way.

Below 1 the message names the argument that was checked; above the cap it
is the one cap message, and the CLI turns either into exit 64.  An order or
a count that is not an int (a bool included) is refused with a message that
names the argument.
"""

import pytest

from ordsgp import GenerationConfig, enumerate_tables, sample_structures, search_model
from ordsgp.cli import main
from ordsgp.harness import iter_catalog, run_suite

CAP_MESSAGE = "exhaustive table enumeration capped at 4"

LIBRARY = {
    "GenerationConfig": ("order", GenerationConfig),
    "enumerate_tables": ("order", enumerate_tables),
    "sample_structures": ("order", lambda n: sample_structures(n, 3, 0)),
    "iter_catalog": ("max_order", lambda n: list(iter_catalog(n, sample_count=3))),
    "search_model": ("max_order", lambda n: search_model(["regular"], max_order=n)),
}

# argv before the order, and the prefix of the one stderr line
CLI = {
    "verify": (["verify", "--theorem", "thm2", "--max-order"], "max_order", "error: "),
    "search": (["search", "--satisfy", "regular", "--max-order"], "max_order", "error: "),
    "enumerate": (["enumerate", "--order"], "order", "error: "),
}


def expected_message(order, argument):
    return f"{argument} must be at least 1" if order < 1 else CAP_MESSAGE


@pytest.mark.parametrize("order", [0, 5])
@pytest.mark.parametrize("entry", LIBRARY)
def test_library_entry_point_checks_order(entry, order):
    argument, call = LIBRARY[entry]
    with pytest.raises(ValueError) as err:
        call(order)
    assert str(err.value) == expected_message(order, argument)


@pytest.mark.parametrize("order", [0, 5])
@pytest.mark.parametrize("command", CLI)
def test_cli_command_checks_order(capsys, command, order):
    argv, argument, prefix = CLI[command]
    assert main(argv + [str(order)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{expected_message(order, argument)}\n"


# (argument, call with the argument set to a value) per entry point, the
# other arguments valid
INTEGER_ARGUMENTS = {
    "GenerationConfig-order": ("order", GenerationConfig),
    "GenerationConfig-limit": ("limit", lambda x: GenerationConfig(2, limit=x)),
    "enumerate_tables": ("order", enumerate_tables),
    "sample_structures-order": ("order", lambda x: sample_structures(x, 3, 0)),
    "sample_structures-count": ("count", lambda x: sample_structures(3, x, 0)),
    "iter_catalog-max_order": ("max_order", lambda x: iter_catalog(x, sample_count=3)),
    "iter_catalog-sample_count": ("sample_count", lambda x: iter_catalog(4, sample_count=x)),
    "run_suite-max_order": ("max_order", lambda x: run_suite("thm2", max_order=x)),
    "run_suite-sample_count": ("sample_count", lambda x: run_suite("thm2", 4, sample_count=x)),
    "search_model": ("max_order", lambda x: search_model(["regular"], max_order=x)),
}


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_entry_point_refuses_a_non_integer(entry, value):
    argument, call = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{argument} must be an integer, got {value!r}"
