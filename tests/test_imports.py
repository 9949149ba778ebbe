"""No verb loads ``numpy.ma``.

numpy imports ``numpy.ma`` lazily, and a bare ``np.unique`` (no index,
inverse or count output) loads it through ``np.ma.is_masked``; the import
costs a fresh process about 14 ms of CPU.  So each verb runs here in a
fresh interpreter, which must end without the module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

VERBS = """
import sys
from stgnn import cli, synthetic
synthetic.generate_synthetic("s.txt", n_nodes=40, n_significant_pairs=20, n_background_events=400, seed=1)
data = ["--dataset", "s.txt", "--time-unit", "1"]
once = ["--epochs", "1", "--reps", "1"]
for argv in (
    ["fit", *data],
    ["run", *data, "--outdir", "a", *once],
    ["run", *data, "--outdir", "b", *once, "--ablation", "BGNN"],
    ["eval", "--dataset", "s.txt", "--checkpoint", "a/seed_00/checkpoint.npz", "--per-node-map"],
):
    assert cli.main(argv) == 0, argv
    print(f"numpy.ma after {argv[0]}: {'numpy.ma' in sys.modules}")
"""


def python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_no_verb_imports_numpy_ma(tmp_path):
    if python("import sys, numpy; print('numpy.ma' in sys.modules)", tmp_path).stdout.strip() != "False":
        pytest.skip("a bare import numpy loads numpy.ma on this numpy")
    proc = python(VERBS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("numpy.ma after")] == [
        f"numpy.ma after {verb}: False" for verb in ("fit", "run", "run", "eval")
    ]
