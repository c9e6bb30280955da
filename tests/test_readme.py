"""README.md's examples run as written."""

import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_block(heading):
    """The first ```python block of README's section ``heading``."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_example_runs(tmp_path):
    """The "Library example" runs in an empty directory with warnings as
    errors, against the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(_ROOT, "src"), env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-W", "error", "-c", _python_block("Library example")],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert os.listdir(tmp_path) == []
