import os
import subprocess
import sys
from pathlib import Path

import radiofp

# numpy first: the modules it and the site hooks load are the baseline
SCRIPT = """
import sys
import numpy
before = {name.split(".")[0] for name in sys.modules}
import radiofp.cli
after = {name.split(".")[0] for name in sys.modules}
print(",".join(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(radiofp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip().split(",") == ["radiofp"]
