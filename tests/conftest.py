"""Let the tests that start `python -m tropcurve.cli` import the package from
this checkout without an install; `pythonpath` in pyproject.toml only reaches
the pytest process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
