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

# Loads one dataset of each source kind, then prints whether numpy.ma (about
# 1 MiB of modules, imported by np.unique's first call) was imported.
LOAD_PROBE = """
import struct, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from nmfprune.datasets import CsvSource, IdxSource, SyntheticBlobs, load_dataset
tmp = Path(sys.argv[2])
labels = [i % 2 for i in range(10)]
(tmp / "data.csv").write_text("".join(f"{i}.5,{i % 3},{y}\\n" for i, y in enumerate(labels)))
(tmp / "images.idx").write_bytes(struct.pack(">iiii", 0x803, 10, 2, 2) + bytes(range(40)))
(tmp / "labels.idx").write_bytes(struct.pack(">ii", 0x801, 10) + bytes(labels))
load_dataset(SyntheticBlobs(50, 4, 3, seed=1))
load_dataset(CsvSource(str(tmp / "data.csv"), label_column=2))
load_dataset(IdxSource(str(tmp / "images.idx"), str(tmp / "labels.idx")))
print("numpy.ma" in sys.modules)
"""


def test_imports_load_only_numpy_and_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_loading_data_does_not_import_numpy_ma(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, str(SRC), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False"]
