import json
import os
import subprocess
import sys

import numpy as np
import pytest

import covshift
from covshift.cli import main
from covshift.detector import load_model
from covshift.eval import BetaDist, gen_scores


def write_scores(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


@pytest.fixture()
def train_file(tmp_path):
    path = tmp_path / "train.txt"
    write_scores(path, gen_scores(BetaDist(5, 1), 4000, seed=50).scores)
    return path


@pytest.fixture()
def model_file(tmp_path, train_file):
    out = tmp_path / "model.json"
    rc = main(["fit", "--scores", str(train_file), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_scores_file_deterministic(self, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            rc = main(["simulate", "--dist", "beta:5,1", "--n", "100", "--seed", "9",
                       "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().split("\n")) == 100

    def test_vector_dist_writes_csv(self, tmp_path):
        out = tmp_path / "vecs.csv"
        rc = main(["simulate", "--dist", "dirichlet:1,1,1", "--n", "5", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 5
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        rc = main(["simulate", "--dist", "cauchy:1", "--n", "5", "--out",
                   str(tmp_path / "x.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_defaults_recorded(self, model_file):
        model = load_model(str(model_file))
        assert model.delta == 0.01
        assert model.c_target_count == 10

    def test_two_point_boundary(self, tmp_path):
        scores = tmp_path / "two.txt"
        write_scores(scores, [0.3, 0.7])
        out = tmp_path / "m.json"
        rc = main(["fit", "--scores", str(scores), "--out", str(out)])
        assert rc == 0

    def test_single_point_rejected(self, tmp_path, capsys):
        scores = tmp_path / "one.txt"
        write_scores(scores, [0.5])
        rc = main(["fit", "--scores", str(scores), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "m must be >= 2" in capsys.readouterr().err

    def test_prints_coverage_table(self, tmp_path, train_file, capsys):
        out = tmp_path / "m.json"
        main(["fit", "--scores", str(train_file), "--out", str(out)])
        printed = capsys.readouterr().out
        assert "c_target" in printed
        assert "b_star" in printed


class TestDetect:
    def test_id_window_no_shift(self, tmp_path, model_file):
        window = tmp_path / "window.txt"
        write_scores(window, gen_scores(BetaDist(5, 1), 200, seed=51).scores)
        rc = main(["detect", "--model", str(model_file), "--window", str(window),
                   "--alpha", "0.05"])
        assert rc == 0

    def test_training_slice_window_no_shift(self, tmp_path, train_file, model_file):
        # a window cut straight from the training scores passes the bounds
        window = tmp_path / "slice.txt"
        lines = train_file.read_text().strip().split("\n")
        window.write_text("\n".join(lines[500:700]) + "\n")
        rc = main(["detect", "--model", str(model_file), "--window", str(window),
                   "--alpha", "0.05"])
        assert rc == 0

    def test_near_zero_window_detected_with_report(self, tmp_path, model_file):
        window = tmp_path / "window.txt"
        write_scores(window, np.full(100, 1e-6))
        report = tmp_path / "report.json"
        rc = main(["detect", "--model", str(model_file), "--window", str(window),
                   "--alpha", "0.05", "--report", str(report)])
        assert rc == 2
        payload = json.loads(report.read_text())
        assert payload["shift_detected"] is True
        assert payload["p_value"] < 0.001
        assert len(payload["per_coverage"]) == 10

    def test_alpha_zero_never_flags(self, tmp_path, model_file):
        window = tmp_path / "window.txt"
        write_scores(window, np.full(100, 1e-6))
        rc = main(["detect", "--model", str(model_file), "--window", str(window),
                   "--alpha", "0"])
        assert rc == 0

    def test_tiny_window_rejected(self, tmp_path, model_file, capsys):
        window = tmp_path / "window.txt"
        write_scores(window, [0.5])
        rc = main(["detect", "--model", str(model_file), "--window", str(window)])
        assert rc == 1

    def test_missing_model_errors(self, tmp_path, capsys):
        window = tmp_path / "window.txt"
        write_scores(window, [0.5, 0.6])
        rc = main(["detect", "--model", str(tmp_path / "absent.json"),
                   "--window", str(window)])
        assert rc == 1


class TestEval:
    def _pools(self, tmp_path):
        id_path = tmp_path / "id.txt"
        sh_path = tmp_path / "shifted.txt"
        write_scores(id_path, gen_scores(BetaDist(5, 1), 400, seed=52).scores)
        write_scores(sh_path, gen_scores(BetaDist(2, 2), 400, seed=53).scores)
        return id_path, sh_path

    @pytest.mark.parametrize("method", ["ours", "single-ent", "ks", "mmd"])
    def test_methods_produce_csv(self, tmp_path, train_file, method):
        id_path, sh_path = self._pools(tmp_path)
        out = tmp_path / f"{method}.csv"
        rc = main(["eval", "--method", method, "--train", str(train_file),
                   "--id", str(id_path), "--shifted", str(sh_path),
                   "--window-sizes", "10,20", "--trials", "3", "--seed", "4",
                   "--permutations", "20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,window_size,auroc")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == method

    def test_byte_identical_reruns(self, tmp_path, train_file):
        id_path, sh_path = self._pools(tmp_path)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            rc = main(["eval", "--method", "ours", "--train", str(train_file),
                       "--id", str(id_path), "--shifted", str(sh_path),
                       "--window-sizes", "10,50", "--trials", "4", "--seed", "123",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_raw_pool_with_two_columns_rejected(self, tmp_path, train_file, capsys):
        id_path, sh_path = self._pools(tmp_path)
        sh_path.write_text("0.5,0.5\n0.25,0.75\n")
        rc = main(["eval", "--method", "ks", "--train", str(train_file),
                   "--id", str(id_path), "--shifted", str(sh_path),
                   "--window-sizes", "10", "--trials", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "raw score file has 2 columns, expected 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_undersized_pool_errors(self, tmp_path, train_file, capsys):
        id_path, sh_path = self._pools(tmp_path)
        rc = main(["eval", "--method", "ours", "--train", str(train_file),
                   "--id", str(id_path), "--shifted", str(sh_path),
                   "--window-sizes", "1000", "--trials", "2", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 1


class TestBench:
    def test_small_bench_csv(self, tmp_path):
        methods = ["ours", "ks", "mmd", "single-sr", "single-ent"]
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "200,400", "--window-size", "10",
                   "--methods", ",".join(methods), "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,m,k,fit_seconds,detect_seconds"
        assert len(lines) == 1 + 2 * len(methods)
        rows = [line.split(",") for line in lines[1:]]
        assert sorted((name, int(m)) for name, m, *_ in rows) == sorted(
            (name, size) for name in methods for size in (200, 400)
        )
        for name, m, k, fit_s, detect_s in rows:
            assert int(k) == 10
            assert float(fit_s) >= 0.0
            assert float(detect_s) > 0.0

    def test_unknown_method_rejected_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--sizes", "1000", "--methods", "ours,bogus", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err
        assert not out.exists()

    def test_unsorted_sizes_rejected(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "2000,1000", "--out", str(tmp_path / "b.csv")])
        assert rc == 1
        assert "ascending" in capsys.readouterr().err


class TestUsage:
    def test_unknown_method_exits_one(self, tmp_path, capsys):
        rc = main(["eval", "--method", "psi", "--train", "x", "--id", "y",
                   "--shifted", "z", "--out", "w"])
        assert rc == 1

    def test_missing_required_flag_exits_one(self, capsys):
        rc = main(["fit", "--out", "model.json"])
        assert rc == 1

    def test_unknown_command_exits_one(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 1

    def test_python_dash_m_runs_cli(self):
        src = os.path.dirname(os.path.dirname(covshift.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "covshift", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "usage: covshift" in proc.stdout
