"""The package's import path: lazy public names, no numpy for triangle, kernels or a refused flag, no scipy."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parcelwalk

SRC = Path(__file__).resolve().parents[1] / "src"

# The parser checks each flag, so a refused geometry or fig3 flag loads no numpy either.
NUMPY_FREE_RUN = """
import json, sys
import parcelwalk.ranges
from parcelwalk.cli import main
out = sys.argv[1]
codes = [main(["triangle", "--n-max", "3", "--kind", "both", "--out", out + "/triangle"]),
         main(["kernels", "--out", out + "/kernels"]),
         main(["geometry", "--circle-n", "3", "--out", out + "/geometry"]),
         main(["fig3", "--trials", "10", "--out", out + "/fig3"])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def run_fresh(script: str, out) -> dict:
    """Run ``script`` in a new interpreter and return the JSON of its last line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_triangle_and_kernels_never_import_numpy(tmp_path):
    assert run_fresh(NUMPY_FREE_RUN, tmp_path) == {"codes": [0, 0, 1, 1], "numpy": False}


# scipy is a test-only dependency: no subcommand may load it.  fig3 loads
# only the package modules it runs.
SCIPY_FREE_RUN = """
import json, sys
from parcelwalk.cli import main
out = sys.argv[1]
codes = [main(["fig3", "--seed", "1", "--trials", "2000", "--steps", "50", "--bins", "30",
               "--out", out + "/fig3"])]
fig3_modules = sorted(m for m in sys.modules if m.startswith("parcelwalk."))
codes += [main(["triangle", "--n-max", "3", "--kind", "both", "--out", out + "/triangle"]),
          main(["geometry", "--out", out + "/geometry"]),
          main(["kernels", "--out", out + "/kernels"])]
print(json.dumps({"codes": codes, "fig3_modules": fig3_modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

FIG3_MODULES = ["parcelwalk." + name
                for name in ("cli", "kernels", "ranges", "stats", "stochastic", "triangle")]


def test_no_subcommand_imports_scipy(tmp_path):
    assert run_fresh(SCIPY_FREE_RUN, tmp_path) == {
        "codes": [0, 0, 0, 0], "fig3_modules": FIG3_MODULES, "scipy": []}


@pytest.mark.parametrize("name", parcelwalk.__all__)
def test_every_public_name_resolves(name):
    value = getattr(parcelwalk, name)
    module = parcelwalk._SUBMODULE[name]
    assert value is getattr(getattr(parcelwalk, module), name)
    assert name in dir(parcelwalk)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        parcelwalk.no_such_name
    assert not hasattr(parcelwalk, "sphere_map_cube")
