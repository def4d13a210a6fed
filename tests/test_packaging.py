import os
import re
import subprocess
import sys
from pathlib import Path

import covshift

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project_table() -> dict:
    text = PYPROJECT.read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]
    # Python 3.10 has no tomllib; the [project] keys used here are plain strings.
    body = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return dict(re.findall(r'^(\w+) = "([^"]*)"$', body, re.M))


def test_version_matches_pyproject():
    assert covshift.__version__ == _project_table()["version"]


def test_distribution_named_after_package():
    assert _project_table()["name"] == "covshift"


def test_numpy_is_the_only_runtime_dependency():
    # Every module that importing the CLI loads, beyond what the interpreter
    # loaded at start-up, is the package itself, numpy or the standard library.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import covshift.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(covshift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert "covshift" in out and "numpy" in out
    allowed = sys.stdlib_module_names | {"numpy", "covshift"}
    assert [m for m in out if m not in allowed] == []
