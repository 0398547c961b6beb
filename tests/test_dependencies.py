"""The runtime is NumPy plus the standard library."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import nmfprune, nmfprune.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"nmfprune", "numpy"})))
"""


def test_imports_load_only_numpy_and_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
