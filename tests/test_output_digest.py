"""Every output of the presets and demos matches the pinned sha256 listing.

``tests/golden/output_digest.txt`` holds the listing of
``tools/output_digest.py`` under a header naming the builds it depends on
(numpy, its BLAS, the SIMD extensions found on the CPU, scipy).  A change
that moves any output byte fails here; a deliberate one regenerates the
file in the same commit, from the root of the checkout:

    PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden/output_digest.txt

On another platform the listing may differ without any fault, so the test
skips and names what differs; it never passes there.
"""

import difflib
import importlib.metadata
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "output_digest.txt"
PLATFORM = "# platform: "


def platform_lines() -> list[str]:
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return [f"numpy {np.__version__}",
            f"blas {blas['name']} {blas['version']}",
            f"simd baseline {' '.join(simd['baseline'])}; found {' '.join(simd['found'])}",
            f"scipy {importlib.metadata.version('scipy')}"]


def listing() -> list[str]:
    """The lines ``tools/output_digest.py`` prints for the package under src/."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_outputs_match_golden_listing():
    lines = GOLDEN.read_text().splitlines()
    pinned = [line.removeprefix(PLATFORM) for line in lines if line.startswith(PLATFORM)]
    here = platform_lines()
    if pinned != here:
        differ = [f"pinned {a!r}, here {b!r}" for a, b in itertools.zip_longest(pinned, here)
                  if a != b]
        pytest.skip("golden listing made on another platform: " + "; ".join(differ))
    golden = [line for line in lines if not line.startswith("#")]
    diff = list(difflib.unified_diff(golden, listing(), "golden", "now", lineterm=""))
    assert not diff, "outputs changed:\n" + "\n".join(diff)


if __name__ == "__main__":
    print("# sha256 listing of tools/output_digest.py; regenerate from the checkout root with")
    print("#   PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden/output_digest.txt")
    for line in platform_lines():
        print(PLATFORM + line)
    print("\n".join(listing()))
