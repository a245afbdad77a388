"""The package's import path: lazy public names, and no numpy for triangle or kernels."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parcelwalk

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE_RUN = """
import json, sys
from parcelwalk.cli import main
out = sys.argv[1]
codes = [main(["triangle", "--n-max", "3", "--kind", "both", "--out", out + "/triangle"]),
         main(["kernels", "--out", out + "/kernels"])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_triangle_and_kernels_never_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0], "numpy": False}


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
