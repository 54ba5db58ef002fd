"""Byte identity of lipcot's outputs as a standing check.

``digests-101.txt`` holds the lines ``tools/digests.py`` prints for seed 101
of the benchmark's inputs, after the numpy, scipy and BLAS builds and the
OpenBLAS core that computed them. This test runs the tool on the same seed
and workloads, in a process of its own under that core, and diffs the lines.
A change that means to change bytes regenerates the file with

    python3 tools/digests.py src --seeds 101 --write tests/digests-101.txt

and lists the changed keys in CHANGES.md.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "digests-101.txt"
REGENERATE = f"python3 tools/digests.py src --seeds 101 --write tests/{RECORD.name}"


def _digests_tool():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_keep_their_recorded_digests(tmp_path):
    header, *recorded = RECORD.read_text().splitlines()
    seeds = sorted({line.split()[1] for line in recorded}, key=int)
    workloads = list(dict.fromkeys(line.split()[0] for line in recorded))
    written = tmp_path / RECORD.name
    # OpenBLAS picks its core when it loads, so only a fresh process can be given one;
    # warnings are errors there, as in this suite
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "digests.py"), str(ROOT / "src"),
         "--seeds", *seeds, "--workloads", *workloads, "--write", str(written)],
        env={**os.environ, "OPENBLAS_CORETYPE": _digests_tool().CORE},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    here, *computed = written.read_text().splitlines()
    # LAPACK's eigenvalues and BLAS's sums may round otherwise on another build or core
    assert header == here, f"{RECORD.name} was recorded on {header[2:]!r}; this is {here[2:]!r}"
    changed = sorted({line.rsplit(" ", 1)[0] for line in set(computed) ^ set(recorded)})
    assert not changed, (
        f"digests changed for {changed}; if that is meant, regenerate with: {REGENERATE}"
    )
    assert computed == recorded  # in order, and no line twice
