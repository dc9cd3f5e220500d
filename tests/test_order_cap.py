"""Every entry point that enumerates checks the catalog order the same way.

Below 1 the message names the argument that was checked; above the cap it
is the one cap message, and the CLI turns either into exit 64.
"""

import pytest

from ordsgp import GenerationConfig, enumerate_tables, sample_structures, search_model
from ordsgp.cli import main
from ordsgp.harness import iter_catalog

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
    "enumerate": (["enumerate", "--order"], "order", "bad configuration: "),
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
