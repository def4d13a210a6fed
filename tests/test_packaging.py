import re
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
