"""README's CLI walkthrough and Library example, run as README prints them.

The `## CLI` section's fenced blocks are read in order. A block holding
`covshift` lines is a list of commands, a backslash at a line's end
continuing it on the next; an `echo $?` line after a command gives, in
its comment, that command's exit status. A block holding no `covshift`
line is output shown for the command before it, and each of its lines
must appear verbatim in that command's stdout. Every command runs in
process through `covshift.cli.main`, in one temporary directory, so a
later command reads the files an earlier one wrote.
"""

import re
import shlex
from pathlib import Path

from covshift.cli import main
from covshift.eval import METHODS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(title, info=""):
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return re.findall(rf"^```{info}\n(.*?)^```", match[1], re.M | re.S)


class Step:
    def __init__(self, line):
        self.argv = shlex.split(line)[1:]
        self.status = 0
        self.shown = []


def walkthrough():
    steps = []
    for block in fenced_blocks("CLI"):
        lines = block.replace("\\\n", " ").splitlines()
        if not any(line.startswith("covshift ") for line in lines):
            assert steps, "README shows output before any covshift command"
            steps[-1].shown.extend(line for line in lines if line.strip())
            continue
        for line in lines:
            if line.startswith("covshift "):
                steps.append(Step(line))
            elif line.startswith("echo $?"):
                steps[-1].status = int(re.fullmatch(r"echo \$\? +# *(\d+)\b.*", line)[1])
            else:
                assert not line.strip(), f"README command block holds {line!r}"
    return steps


def test_cli_walkthrough_runs_as_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = walkthrough()
    assert {"simulate", "fit", "detect", "eval", "bench"} <= {s.argv[0] for s in steps}
    assert [s.status for s in steps if s.argv[0] == "detect"] == [2]
    assert [s.argv[0] for s in steps if s.shown] == ["detect"]
    for step in steps:
        runs = [step.argv]
        if step.argv[0] == "eval":
            # README's eval line once more with each other method, each
            # writing its own CSV.
            method, out = (step.argv.index(flag) + 1 for flag in ("--method", "--out"))
            for name in METHODS:
                if name != step.argv[method]:
                    argv = list(step.argv)
                    argv[method], argv[out] = name, f"{name}.csv"
                    runs.append(argv)
        for argv in runs:
            status = main(argv)
            printed, err = capsys.readouterr()
            assert (status, err) == (step.status, ""), argv
            outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--report")]
            assert outputs and all((tmp_path / path).is_file() for path in outputs), argv
            missing = [line for line in step.shown if line not in printed.splitlines()]
            assert not missing, (missing, printed)
            if argv[0] == "eval":
                sizes = argv[argv.index("--window-sizes") + 1].split(",")
                rows = (tmp_path / outputs[0]).read_text().splitlines()
                assert len(rows) == 1 + len(sizes), argv


def test_library_example_runs_and_detects_the_shift():
    (example,) = fenced_blocks("Library", info="python")
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["report"].shift_detected is True
