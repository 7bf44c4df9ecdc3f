"""What a cold import of the package loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy subpackages that cornerlab has no use for; scipy.optimize alone
# pulls in scipy.fft and scipy.special and costs about 0.25 s a process.
UNUSED_SCIPY = ("scipy.optimize", "scipy.special", "scipy.fft", "scipy.stats")


def test_import_leaves_unused_scipy_subpackages_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import sys, cornerlab, cornerlab.cli; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "cornerlab.cli" in out
    assert [name for name in UNUSED_SCIPY if name in out] == []
