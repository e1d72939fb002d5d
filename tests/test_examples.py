"""Every example script must import against the current API.

Byte-compiling an example checks its syntax only: a script importing a name
the package no longer exports still compiles.  Running it under a run name
other than ``__main__`` executes its imports and definitions while its
``main()`` stays behind the ``if __name__ == "__main__"`` guard.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
