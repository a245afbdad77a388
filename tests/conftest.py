import os
import sys
from pathlib import Path

import pytest

# allow running the suite from a source checkout without installing
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process unreaped, a forked worker included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
