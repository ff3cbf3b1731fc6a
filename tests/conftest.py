"""Let the tests that start `python -m tropcurve.cli` import the package from
this checkout without an install; `pythonpath` in pyproject.toml only reaches
the pytest process itself.  Fixtures more than one test module reads."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def digit_limit():
    """Set CPython's int-to-str digit limit for one test, whatever the environment
    set it to (PYTHONINTMAXSTRDIGITS), and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
