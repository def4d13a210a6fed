import importlib
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
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


def _run_probe(code: str, cwd=None) -> str:
    """Run code in a fresh interpreter that imports the package from this tree."""
    src = str(Path(covshift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_is_the_only_runtime_dependency():
    # Every module that the CLI and the modules its commands import load,
    # beyond what the interpreter loaded at start-up, is the package itself,
    # numpy or the standard library.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import covshift.cli, covshift.eval, covshift.baselines\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    out = _run_probe(probe).split()
    assert "covshift" in out and "numpy" in out
    allowed = sys.stdlib_module_names | {"numpy", "covshift"}
    assert [m for m in out if m not in allowed] == []


def test_every_exported_name_resolves():
    # guards against a stale __all__ entry after a name is deleted
    submodules = [
        importlib.import_module(f"covshift.{info.name}")
        for info in pkgutil.iter_modules(covshift.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    assert len(submodules) >= 8
    unresolved = [
        f"{module.__name__}.{name}"
        for module in [covshift, *submodules]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert unresolved == []


def test_fit_and_detect_load_neither_eval_nor_baselines(tmp_path):
    (tmp_path / "train.txt").write_text("".join(f"{(i % 997) / 997}\n" for i in range(3000)))
    (tmp_path / "window.txt").write_text("0.1\n0.9\n0.5\n0.7\n0.3\n")
    out = _run_probe(
        """
        import contextlib, io, sys
        from covshift.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", "--scores", "train.txt", "--out", "model.json"]) == 0
            rc = main(["detect", "--model", "model.json", "--window", "window.txt",
                       "--report", "report.json"])
        assert rc in (0, 2), rc
        loaded = ("covshift.eval", "covshift.baselines", "numpy.ma")
        print(sorted(m for m in loaded if m in sys.modules))
        """,
        cwd=tmp_path,
    )
    assert out.strip() == "[]"
    assert (tmp_path / "report.json").exists()


def test_lazy_names_resolve_into_plain_attributes():
    out = _run_probe(
        """
        import sys
        import covshift

        assert "covshift.eval" not in sys.modules and "covshift.baselines" not in sys.modules
        assert "run_trials" not in vars(covshift)
        run_trials = covshift.run_trials
        # After its first access the name is an ordinary module attribute.
        assert vars(covshift)["run_trials"] is run_trials is sys.modules["covshift.eval"].run_trials
        assert vars(covshift)["eval"] is sys.modules["covshift.eval"]
        assert covshift.baselines.VectorSample is covshift.VectorSample
        names = {}
        exec("from covshift import *", names)
        missing = [n for n in covshift.__all__ if names.get(n) is not getattr(covshift, n)]
        assert missing == [], missing
        try:
            covshift.no_such_name
        except AttributeError as exc:
            print(exc)
        """
    )
    assert out.strip() == "module 'covshift' has no attribute 'no_such_name'"
