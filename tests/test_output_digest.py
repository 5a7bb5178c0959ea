"""Every output of the presets and demos matches the pinned sha256 listing.

``tests/golden/output_digest.txt`` holds the listing of
``tools/output_digest.py`` under a header naming the builds it depends on
(numpy, its BLAS, the kernel OpenBLAS picked for the CPU and the SIMD
extensions found on it).  A change that moves any output byte fails here;
a deliberate one regenerates the file in the same commit, from the root
of the checkout:

    PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden/output_digest.txt

On another platform the listing may differ without any fault, so the test
skips and names what differs; it never passes there.
"""

import ctypes
import difflib
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


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU (the
    OPENBLAS_CORETYPE override included), or "unknown" without that library."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def platform_lines() -> list[str]:
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return [f"numpy {np.__version__}",
            f"blas {blas['name']} {blas['version']}",
            f"openblas core {openblas_core()}",
            f"simd baseline {' '.join(simd['baseline'])}; "
            f"found {' '.join(simd.get('found', []))}"]


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


@pytest.mark.parametrize("env,named", [
    ({"OPENBLAS_CORETYPE": "Sandybridge"}, "openblas core"),
    ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}, "simd baseline"),
], ids=["blas-kernel", "simd-baseline"])
def test_golden_listing_skips_under_another_kernel(env, named):
    # another BLAS kernel or SIMD set moves output bits without any fault:
    # the golden test, run in a process that has it, skips and names it
    script = ("import sys, pytest\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import test_output_digest\n"
              "try:\n"
              "    test_output_digest.test_outputs_match_golden_listing()\n"
              "except pytest.skip.Exception as skipped:\n"
              "    print('SKIP', skipped)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "tests")],
                          env=dict(os.environ, **env), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("SKIP golden listing made on another platform: "), proc.stdout
    assert f"pinned '{named}" in proc.stdout


if __name__ == "__main__":
    print("# sha256 listing of tools/output_digest.py; regenerate from the checkout root with")
    print("#   PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden/output_digest.txt")
    for line in platform_lines():
        print(PLATFORM + line)
    print("\n".join(listing()))
