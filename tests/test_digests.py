"""Byte identity of lipcot's outputs as a standing check.

``digests-101.txt`` holds the lines ``tools/digests.py`` prints for seed 101
of the benchmark's inputs, after the numpy, scipy and BLAS builds that
computed them. This test computes the same lines in-process and diffs them.
A change that means to change bytes regenerates the file with

    python3 tools/digests.py src --seeds 101 --write tests/digests-101.txt

and lists the changed keys in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "digests-101.txt"
REGENERATE = f"python3 tools/digests.py src --seeds 101 --write tests/{RECORD.name}"


def _digests_tool():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_keep_their_recorded_digests():
    tool = _digests_tool()
    header, *recorded = RECORD.read_text().splitlines()
    here = f"# environment: {tool.environment()}"
    # LAPACK's eigenvalues and BLAS's sums may round otherwise on another build
    assert header == here, f"{RECORD.name} was recorded on {header[2:]!r}; this is {here[2:]!r}"
    seeds = sorted({int(line.split()[1]) for line in recorded})
    workloads = list(dict.fromkeys(line.split()[0] for line in recorded))
    computed = list(tool.digest_lines(seeds, workloads))
    changed = sorted({line.rsplit(" ", 1)[0] for line in set(computed) ^ set(recorded)})
    assert not changed, (
        f"digests changed for {changed}; if that is meant, regenerate with: {REGENERATE}"
    )
