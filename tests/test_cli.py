import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import covshift
from covshift.cli import main
from covshift.detector import load_model
from covshift.eval import METHODS, BetaDist, gen_scores


def write_scores(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


def run_cli(args, **kwargs):
    # covshift as its own process, importing this checkout's package.
    src = os.path.dirname(os.path.dirname(covshift.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "covshift", *args],
                          capture_output=True, text=True, env=env, **kwargs)


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


@pytest.fixture(scope="module")
def vector_pools(tmp_path_factory):
    """Softmax (Dirichlet) and embedding (Gaussian) train, ID and shifted pools."""
    root = tmp_path_factory.mktemp("pools")
    specs = {
        "softmax": ("dirichlet:10,1,1", "dirichlet:1,1,1"),
        "embedding": ("gaussian:0,1,4", "gaussian:1,1,4"),
    }
    pools = {}
    for fmt, (id_dist, shifted_dist) in specs.items():
        paths = {}
        for seed, (role, dist, n) in enumerate(
            [("train", id_dist, 600), ("id", id_dist, 300), ("shifted", shifted_dist, 300)]
        ):
            paths[role] = root / f"{fmt}_{role}.csv"
            rc = main(["simulate", "--dist", dist, "--n", str(n), "--seed", str(seed),
                       "--out", str(paths[role])])
            assert rc == 0
        pools[fmt] = paths
    return pools


def pool_args(paths):
    return ["--train", str(paths["train"]), "--id", str(paths["id"]),
            "--shifted", str(paths["shifted"])]


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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_rejected(self, tmp_path, n, capsys):
        out = tmp_path / "x.txt"
        rc = main(["simulate", "--dist", "uniform", "--n", n, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("beta:inf,1", "beta parameter a must be finite, got inf"),
            ("dirichlet:inf,1", "dirichlet concentrations must be finite, got inf, 1.0"),
            ("dirichlet:nan,1", "dirichlet concentrations must be finite, got nan, 1.0"),
            ("gaussian:0,nan,2", "gaussian sigma must be finite, got nan"),
            ("gaussian:inf,1,2", "gaussian mu must be finite, got inf"),
            ("mixture:nan*uniform", "mixture weights must be finite, got nan"),
        ],
    )
    def test_non_finite_parameter_named_before_drawing(self, tmp_path, spec, message):
        # Its own process, so that a numpy warning would show on stderr.
        out = tmp_path / "x.txt"
        proc = run_cli(["simulate", "--dist", spec, "--n", "5", "--out", str(out)], timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("beta:0.001,0.001",
             "beta a=0.001, b=0.001: both gamma draws of a score underflowed to 0"),
            ("dirichlet:0.001,0.001,0.001",
             "dirichlet concentrations 0.001, 0.001, 0.001: "
             "every gamma draw of a row underflowed to 0"),
        ],
        ids=["beta", "dirichlet"],
    )
    def test_gamma_underflow_exits_one(self, tmp_path, spec, message):
        # Its own process, so that a 0/0 warning would show on stderr.
        out = tmp_path / "x.txt"
        proc = run_cli(["simulate", "--dist", spec, "--n", "1000", "--seed", "1",
                        "--out", str(out)], timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not out.exists()


class TestFit:
    def test_defaults_recorded(self, model_file):
        model = load_model(str(model_file))
        assert model.delta == 0.01
        assert len(model.pairs) == 10

    def test_header_line_gives_identical_model(self, tmp_path, train_file, model_file):
        headed = tmp_path / "headed.txt"
        headed.write_text("score\n" + train_file.read_text())
        out = tmp_path / "headed.json"
        assert main(["fit", "--scores", str(headed), "--header", "--out", str(out)]) == 0
        assert out.read_bytes() == model_file.read_bytes()

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

    def test_non_utf8_scores_named(self, tmp_path, capsys):
        scores = tmp_path / "scores.bin"
        scores.write_bytes(b"\x1f\x8b\x08\x00")
        rc = main(["fit", "--scores", str(scores), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {scores}: not UTF-8 text: ")
        assert not (tmp_path / "m.json").exists()

    def test_piped_scores_refused(self, tmp_path, train_file):
        # The reader needs a regular file; a pipe or FIFO is refused by name
        # before it is opened, so the FIFO below, which has no writer,
        # cannot block the command.
        out = tmp_path / "m.json"
        fifo = tmp_path / "scores.fifo"
        os.mkfifo(fifo)
        for path, stdin in [(str(fifo), None), ("/dev/stdin", train_file.read_text())]:
            proc = run_cli(["fit", "--scores", path, "--out", str(out)], input=stdin, timeout=30)
            assert proc.returncode == 1
            assert proc.stderr == (
                f"error: {path}: not a regular file (pipes and devices cannot be read)\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["0", "1", "-0.5", "nan"])
    def test_delta_outside_unit_interval_rejected(self, tmp_path, train_file, delta, capsys):
        out = tmp_path / "m.json"
        rc = main(["fit", "--scores", str(train_file), "--delta", delta, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --delta must lie in (0, 1), got {float(delta)}\n"
        )
        assert not out.exists()

    def test_delta_too_small_for_the_sample_exits_one(self, tmp_path, train_file):
        # 4000 scores split delta over 12 iterations, and 1e-16 / 12 rounds
        # away against 1: one error line, no traceback.
        out = tmp_path / "m.json"
        proc = run_cli(["fit", "--scores", str(train_file), "--delta", "1e-16",
                        "--out", str(out)], timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: delta=1e-16 at m=4000 gives a per-iteration delta")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/model.json", "taken"], ids=["no-dir", "is-dir"])
    def test_unwritable_out_names_the_given_path(self, tmp_path, train_file, out, monkeypatch,
                                                 capsys):
        # The model is written through a temp file beside --out; a failed
        # write names --out as given, not the temp file, and leaves none.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        rc = main(["fit", "--scores", str(train_file), "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": '{out}'\n")
        assert err.count("\n") == 1
        assert list(tmp_path.rglob("tmp*.tmp")) == []

    def test_softmax_scores_record_kappa(self, tmp_path, vector_pools):
        out = tmp_path / "m.json"
        rc = main(["fit", "--scores", str(vector_pools["softmax"]["train"]),
                   "--format", "softmax", "--kappa", "sr", "--out", str(out)])
        assert rc == 0
        model = load_model(str(out))
        assert model.kappa_name == "softmax_response"
        assert model.m == 600

    def test_softmax_csv_read_as_raw_rejected(self, tmp_path, vector_pools, capsys):
        path = vector_pools["softmax"]["train"]
        rc = main(["fit", "--scores", str(path), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: raw score file has 3 columns, expected 1\n"
        )

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
        assert list(payload["per_coverage"][0]) == [
            "c_target", "b_star", "empirical_coverage", "violated"
        ]

    def test_sorted_window_marked_model_and_replaced_report_give_identical_report(
            self, tmp_path, train_file):
        # The statistic reads only the window's counts at or above each
        # threshold, and a model file may start with a UTF-8 byte-order mark,
        # so neither a sorted window nor a marked copy of the model changes a
        # report byte. Under umask 022 a new model or report gets mode 644,
        # as a plain open() gives it, and a replaced report keeps its mode.
        window, ordered = tmp_path / "window.txt", tmp_path / "sorted.txt"
        scores = gen_scores(BetaDist(2, 2), 200, seed=54).scores
        write_scores(window, scores)
        write_scores(ordered, np.sort(scores))
        model, marked = tmp_path / "model.json", tmp_path / "marked.json"
        report = tmp_path / "report.json"

        def report_bytes(model, window):
            assert main(["detect", "--model", str(model), "--window", str(window),
                         "--alpha", "0.05", "--report", str(report)]) == 2
            return report.read_bytes()

        old = os.umask(0o022)
        try:
            assert main(["fit", "--scores", str(train_file), "--out", str(model)]) == 0
            expected = report_bytes(model, window)
        finally:
            os.umask(old)
        assert [path.stat().st_mode & 0o777 for path in (model, report)] == [0o644, 0o644]
        marked.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        report.chmod(0o640)
        assert report_bytes(model, ordered) == expected
        assert report_bytes(marked, window) == expected
        assert report.stat().st_mode & 0o777 == 0o640

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

    def test_non_utf8_model_named(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b"\x1f\x8b\x08\x00")
        window = tmp_path / "window.txt"
        write_scores(window, [0.5, 0.6])
        rc = main(["detect", "--model", str(model), "--window", str(window)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: not a valid model file: ")

    @pytest.mark.parametrize("alpha", ["1.0", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, tmp_path, model_file, alpha, capsys):
        window = tmp_path / "window.txt"
        write_scores(window, [0.5, 0.6])
        for model in (model_file, tmp_path / "absent.json"):
            rc = main(["detect", "--model", str(model), "--window", str(window),
                       "--alpha", alpha])
            assert rc == 1
            assert capsys.readouterr().err == f"error: --alpha must lie in [0, 1), got {alpha}\n"

    def test_softmax_window_against_softmax_model(self, tmp_path, vector_pools, capsys):
        paths = vector_pools["softmax"]
        model = tmp_path / "m.json"
        assert main(["fit", "--scores", str(paths["train"]), "--format", "softmax",
                     "--kappa", "sr", "--out", str(model)]) == 0
        capsys.readouterr()
        rc = main(["detect", "--model", str(model), "--window", str(paths["shifted"]),
                   "--format", "softmax"])
        assert rc == 2
        assert "verdict: SHIFT DETECTED" in capsys.readouterr().out

    def test_unknown_kappa_in_model_names_file(self, tmp_path, model_file, capsys):
        payload = json.loads(model_file.read_text())
        payload["kappa_name"] = "foo"
        model_file.write_text(json.dumps(payload))
        window = tmp_path / "window.txt"
        write_scores(window, [0.5, 0.6])
        rc = main(["detect", "--model", str(model_file), "--window", str(window)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_file}: malformed model file: kappa_name must be")
        assert "'foo'" in err

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

    @pytest.mark.parametrize("fmt", ["softmax", "embedding"])
    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_vector_methods_on_vector_pools(self, tmp_path, vector_pools, method, fmt):
        out = tmp_path / f"{method}.csv"
        rc = main(["eval", "--method", method, "--format", fmt,
                   *pool_args(vector_pools[fmt]), "--window-sizes", "10,20",
                   "--trials", "3", "--permutations", "20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert [line.split(",")[:2] for line in lines[1:]] == [[method, "10"], [method, "20"]]

    @pytest.mark.parametrize(
        "method, fmt, kappa, message",
        [
            ("ours", "embedding", "raw",
             "method 'ours' requires score input (--format raw or softmax with --kappa)"),
            ("single-sr", "softmax", "raw", "softmax pools need --kappa sr or --kappa entropy"),
            ("single-ent", "softmax", "sr",
             "estimator mismatch: scores carry kappa 'softmax_response' but estimator "
             "'entropy' expects 'one_minus_entropy'"),
        ],
    )
    def test_score_method_input_mismatch_rejected(
        self, tmp_path, vector_pools, method, fmt, kappa, message, capsys
    ):
        out = tmp_path / "x.csv"
        rc = main(["eval", "--method", method, "--format", fmt, "--kappa", kappa,
                   *pool_args(vector_pools[fmt]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_unset_flags_take_the_documented_defaults(self, tmp_path, train_file):
        id_path, sh_path = tmp_path / "id.txt", tmp_path / "shifted.txt"
        write_scores(id_path, gen_scores(BetaDist(5, 1), 2000, seed=52).scores)
        write_scores(sh_path, gen_scores(BetaDist(2, 2), 2000, seed=53).scores)
        pools = ["--train", str(train_file), "--id", str(id_path), "--shifted", str(sh_path)]
        explicit = ["--window-sizes", "10,20,50,100,200,500,1000", "--trials", "15",
                    "--seed", "0", "--delta", "0.01", "--coverages", "10",
                    "--permutations", "100"]
        outs = []
        for name, flags in (("unset.csv", []), ("explicit.csv", explicit)):
            out = tmp_path / name
            assert main(["eval", "--method", "ours", *pools, *flags, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].decode().strip().split("\n")) == 1 + 7

    @pytest.mark.parametrize("method", ["ours", "ks"])
    def test_header_lines_give_identical_csv(self, tmp_path, train_file, method):
        # ours reads score pools, ks reads raw pools as 1-D vectors.
        paths = [train_file, *self._pools(tmp_path)]
        headed = [path.with_suffix(".headed") for path in paths]
        for path, copy in zip(paths, headed):
            copy.write_text("score\n" + path.read_text())
        outs = []
        for pools, flags in ((paths, []), (headed, ["--header"])):
            out = tmp_path / f"{method}{len(flags)}.csv"
            rc = main(["eval", "--method", method, "--train", str(pools[0]),
                       "--id", str(pools[1]), "--shifted", str(pools[2]), *flags,
                       "--window-sizes", "10", "--trials", "2", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # mmd is left out: its bandwidth rule sets 2 sigma^2 to the median
    # pairwise distance, not its square, so the kernel exponent
    # -d^2 / (2 sigma^2) grows with the scale of the scores; at 2**300
    # every off-diagonal kernel entry underflows to 0.
    @pytest.mark.parametrize("method", ["ours", "ks", "single-sr", "single-ent"])
    def test_power_of_two_rescaled_pools_give_identical_csv(self, tmp_path, train_file, method):
        paths = [train_file, *self._pools(tmp_path)]
        outs = []
        for e in (0, 300, -300):
            scaled = [tmp_path / f"{path.stem}{e}.txt" for path in paths]
            for path, copy in zip(paths, scaled):
                values = [float(line) for line in path.read_text().split()]
                copy.write_text("".join(f"{math.ldexp(x, e)!r}\n" for x in values))
            out = tmp_path / f"{method}{e}.csv"
            rc = main(["eval", "--method", method, "--train", str(scaled[0]),
                       "--id", str(scaled[1]), "--shifted", str(scaled[2]),
                       "--window-sizes", "10,20", "--trials", "3", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0]
        assert outs[2] == outs[0]

    def test_raw_pool_with_two_columns_rejected(self, tmp_path, train_file, capsys):
        id_path, sh_path = self._pools(tmp_path)
        sh_path.write_text("0.5,0.5\n0.25,0.75\n")
        rc = main(["eval", "--method", "ks", "--train", str(train_file),
                   "--id", str(id_path), "--shifted", str(sh_path),
                   "--window-sizes", "10", "--trials", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "line 1: raw score file has 2 columns, expected 1" in capsys.readouterr().err
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

    def test_baselines_timed_one_shot(self, tmp_path, monkeypatch):
        import covshift.eval as eval_mod

        calls = {"detect_ks": 0, "detect_single_instance": 0}

        def counting(name):
            original = getattr(eval_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(eval_mod, name, counting(name))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "200", "--methods", "ks,single-sr", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        # One warm-up and five timed windows per method, each on the raw reference.
        assert calls == {"detect_ks": 6, "detect_single_instance": 6}

    def test_unknown_method_rejected_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--sizes", "1000", "--methods", "ours,bogus", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "0", "-3"])
    def test_window_size_below_two_rejected_before_any_work(self, tmp_path, k, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--sizes", "1000", "--window-size", k, "--methods", "ks,ours",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --window-size must be >= 2, got {k}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["1", "0", "0,1000", "1000,1"])
    def test_sizes_below_two_rejected_before_any_work(self, tmp_path, sizes, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--sizes", sizes, "--methods", "ks,ours", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = [int(v) for v in sizes.split(",")]
        assert captured.err == f"error: --sizes must all be >= 2, got {expected}\n"
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
        assert len(METHODS) == 5
        assert f"unknown method(s) psi; choose from {','.join(METHODS)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["bench", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['covshift', *argv[:-1]])}")

    def test_missing_required_flag_exits_one(self, capsys):
        rc = main(["fit", "--out", "model.json"])
        assert rc == 1

    def test_unknown_command_exits_one(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 1

    def test_python_dash_m_runs_cli(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        assert "usage: covshift" in proc.stdout
