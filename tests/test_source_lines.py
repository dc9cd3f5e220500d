"""No line of the runtime sources is longer than 95 columns.

The ``src/`` line count measures how much code the package needs, so a
smaller count must not come from packing code onto longer lines.
"""

from pathlib import Path

import pytest

MAX_COLUMNS = 95

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ordsgp").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_exceeds_max_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > MAX_COLUMNS]
    assert not long, f"{path.name}: lines {long} exceed {MAX_COLUMNS} columns"
