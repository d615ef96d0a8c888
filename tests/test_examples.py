"""Every example script imports cleanly.

The examples are ``__main__``-guarded, so importing one runs nothing
but its imports and module-level definitions; an example that still
names a deleted API fails here.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
