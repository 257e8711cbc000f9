"""What a bare ``import tipas`` loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_integrate_nor_optimize():
    # the quadrature oracle lives beside the tests; the package itself needs
    # only scipy.special
    code = (
        "import sys, tipas; print(tipas.__file__); "
        "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    path, loaded = out.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC)
    assert loaded == "[]"
