"""File formats, manifests, and the four batch commands."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rvmix.cli import CLASSICAL_METHODS, RVM_METHODS, SOLVE_KEYS, build_parser, main
from rvmix.enet import SolverConfig, solve_enet
from rvmix.errors import ConfigError, ContainerError, DomainError
from rvmix.mxio import MAGIC
from rvmix.mxio import parse_config_text, read_matrix, write_matrix
from rvmix.mxn import solve_mxn
from rvmix.posterior import ProblemData


class TestMatrixContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 5))
        arr[0, 0] = -0.0
        arr[1, 1] = 1e-300
        path = tmp_path / "m.mxio"
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.shape == arr.shape
        assert arr.tobytes() == back.tobytes()

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=1, max_side=8),
                      elements=st.floats(allow_nan=False, width=64)))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, arr):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.mxio"
            write_matrix(path, arr)
            assert np.array_equal(read_matrix(path), np.atleast_2d(arr))

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.array([[1.5, 2.0], [3.0, -4.25]]), delimiter=",")
        out = read_matrix(path)
        np.testing.assert_array_equal(out, [[1.5, 2.0], [3.0, -4.25]])

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.mxio"
        write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DomainError):
            read_matrix(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"not a matrix at all")
        with pytest.raises(DomainError):
            read_matrix(path)


class TestConfigParsing:
    def test_basic(self):
        cfg = parse_config_text("a = 1\n# comment\nb = two words\n\nc=3.5")
        assert cfg == {"a": "1", "b": "two words", "c": "3.5"}

    def test_malformed_line_reported(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a = 1\nbogus line\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("a =")


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "sim.cfg"
    cfg.write_text("s = 48\nn = 12\nt = 8\nseed = 3\npeak_snr_db = 42\nc_sigma_space = 2.0\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestSimulateCommand:
    def test_artifacts_written(self, sim_dir):
        for name in ("K.mxio", "V.mxio", "V_clean.mxio", "J_true.mxio",
                     "support_true.mxio", "manifest.json"):
            assert (sim_dir / name).exists()
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["noise_sigma"] > 0

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 48\nn = 12\nt = 8\nseed = 3\npeak_snr_db = 42\nc_sigma_space = 2.0\n")
        out2 = tmp_path / "again"
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("K.mxio", "V.mxio", "J_true.mxio", "manifest.json"):
            assert (sim_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("s = 48\nnot a key value line\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("voxels = 9000\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("s = 48\nn = 12\nt = 8\nseed = -1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSolveCommand:
    def test_enet_rvm_run(self, sim_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(out)])
        assert code == 0
        mu = read_matrix(out / "mu.mxio")
        assert mu.shape == (48, 8)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] in (True, False)
        trace = np.loadtxt(out / "objective_trace.csv", delimiter=",", ndmin=2)
        assert trace.shape[0] == manifest["iterations"]

    def test_dimension_mismatch_exit_2(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.mxio"
        write_matrix(bad, np.ones((5, 3)))
        code = main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_ridge_with_flag_lambda(self, sim_dir, tmp_path):
        out = tmp_path / "ridge"
        code = main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lam", "0.5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["selected_lambda"] == 0.5

    def test_mm_with_gcv_grid(self, sim_dir, tmp_path):
        out = tmp_path / "lasso"
        code = main(["solve", "--method", "lasso-mm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lambda-grid", "0.1,1,10",
                     "--max-iter", "60", "--out", str(out)])
        assert code == 0
        assert (out / "gcv_curve.csv").exists()
        curve = np.loadtxt(out / "gcv_curve.csv", delimiter=",", ndmin=2)
        assert curve.shape == (3, 2)

    def test_mm_capped_run_reports_not_converged(self, sim_dir, tmp_path):
        out = tmp_path / "capped"
        code = main(["solve", "--method", "lasso-mm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lam", "1", "--max-iter", "5",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False
        assert manifest["iterations"] == 5

    def test_gcv_edge_flag(self, sim_dir, tmp_path):
        # the ridge GCV curve of this simulation has its minimum near 1e-5
        edges = {}
        for name, grid in (("low", "1,10"), ("high", "1e-9,1e-8"), ("wide", "1e-8,1e-5,1e-2")):
            out = tmp_path / name
            assert main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                         "--V", str(sim_dir / "V.mxio"), "--lambda-grid", grid,
                         "--out", str(out)]) == 0
            edges[name] = json.loads((out / "manifest.json").read_text())
        assert edges["low"]["selected_lambda"] == 1.0
        assert edges["high"]["selected_lambda"] == 1e-8
        assert edges["low"]["selected_at_grid_edge"] is True
        assert edges["high"]["selected_at_grid_edge"] is True
        assert edges["wide"]["selected_lambda"] == 1e-5
        assert edges["wide"]["selected_at_grid_edge"] is False

    def test_mxn_rvm_single_column(self, sim_dir, tmp_path):
        # spatial-only mode: a one-column observation matrix
        V = read_matrix(sim_dir / "V.mxio")[:, [0]]
        vpath = tmp_path / "v1.mxio"
        write_matrix(vpath, V)
        out = tmp_path / "mxn1"
        code = main(["solve", "--method", "mxn-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(vpath), "--out", str(out)])
        assert code == 0
        assert read_matrix(out / "mu.mxio").shape == (48, 1)

    @pytest.mark.parametrize("damage", ["header", "payload"])
    def test_corrupt_container_exit_3(self, sim_dir, tmp_path, damage):
        bad = tmp_path / "bad.mxio"
        raw = (sim_dir / "V.mxio").read_bytes()
        bad.write_bytes(MAGIC + raw[5:12] if damage == "header" else raw[:-8])
        with pytest.raises(ContainerError):
            read_matrix(bad)
        code = main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(bad), "--lam", "1", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_every_solve_key_has_a_flag(self, tmp_path):
        sample = {int: "3", float: "0.5", bool: "false", str: "learned",
                  SOLVE_KEYS["lambda_grid"]: "0.1,1"}
        for key, kind in SOLVE_KEYS.items():
            args = build_parser().parse_args(
                ["solve", "--out", str(tmp_path), f"--{key.replace('_', '-')}", sample[kind]])
            assert isinstance(getattr(args, key), kind), key

    @pytest.mark.parametrize("entry", ["flag", "config", "replay"])
    def test_bad_lambda_grid_exit_2(self, sim_dir, tmp_path, capsys, entry):
        inputs = ["--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                  "--V", str(sim_dir / "V.mxio")]
        if entry == "flag":
            argv = ["solve", *inputs, "--lambda-grid", "abc"]
        elif entry == "config":
            cfg = tmp_path / "solve.cfg"
            cfg.write_text("lambda_grid = 0.1,0\n")
            argv = ["solve", *inputs, "--config", str(cfg)]
        else:
            out = tmp_path / "first"
            assert main(["solve", *inputs, "--lambda-grid", "0.1,1", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["config"]["lambda_grid"] = ","
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(manifest))
            argv = ["solve", "--replay", str(bad)]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_row_mismatch_message(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "bad.mxio"
        write_matrix(bad, np.ones((5, 3)))
        capsys.readouterr()
        assert main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(bad), "--lam", "1", "--out", str(tmp_path / "o")]) == 2
        assert "row mismatch: K has 12 rows, V has 5" in capsys.readouterr().err

    def test_bad_boolean_flag_exit_2(self, sim_dir, tmp_path):
        code = main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--learn-k", "maybe",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_mm_manifest_final_step_is_reproducible(self, sim_dir, tmp_path):
        manifests = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["solve", "--method", "enet-mm", "--K", str(sim_dir / "K.mxio"),
                         "--V", str(sim_dir / "V.mxio"), "--lam", "1", "--mu-mix", "0.2",
                         "--max-iter", "30", "--out", str(out)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert manifest["final_step"] > 0.0
        assert (manifest["final_step"] <= 1e-6) == manifest["converged"]

    @pytest.mark.parametrize("flags", [
        ["--method", "enet-rvm", "--epsilon-prior", "-1"],
        ["--method", "enet-rvm", "--epsilon-prior", "0"],
        ["--method", "lasso-mm", "--lam", "1", "--max-iter", "-3"],
    ])
    def test_out_of_domain_value_exit_2(self, sim_dir, tmp_path, capsys, flags):
        code = main(["solve", *flags, "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert flags[-2][2:].replace("-", "_") in capsys.readouterr().err

    def test_unknown_method_exit_2(self, sim_dir, tmp_path):
        code = main(["solve", "--method", "magic", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_replay_reproduces_bytes(self, sim_dir, tmp_path):
        out = tmp_path / "first"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(out)]) == 0
        out2 = tmp_path / "second"
        assert main(["solve", "--replay", str(out / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out / "mu.mxio").read_bytes() == (out2 / "mu.mxio").read_bytes()
        assert (out / "manifest.json").read_text() == (out2 / "manifest.json").read_text()


    def test_stop_reasons_in_manifest(self, sim_dir, tmp_path):
        out = tmp_path / "enet"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--max-iter", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == ["max_iter"] * 8
        assert manifest["column_iterations"] == [2] * 8
        assert manifest["converged"] is False
        out = tmp_path / "mxn"
        assert main(["solve", "--method", "mxn-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "tol" and manifest["converged"] is True

    @pytest.mark.parametrize("key, value", [("max_iter", "abc"), ("voxels", 3),
                                            ("learn_k", "maybe"), ("max_iter", True),
                                            ("tol_mu", False), ("beta_mode", 1)])
    def test_replay_config_is_typed(self, sim_dir, tmp_path, capsys, key, value):
        out = tmp_path / "first"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--max-iter", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["solve", "--replay", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_replay_accepts_an_int_for_a_float_key(self, sim_dir, tmp_path):
        out = tmp_path / "first"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--max-iter", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["tol_mu"] = 1
        good = tmp_path / "good.json"
        good.write_text(json.dumps(manifest))
        assert main(["solve", "--replay", str(good), "--out", str(tmp_path / "o")]) == 0

    def test_enet_mm_without_mu_mix_exit_2(self, sim_dir, tmp_path, capsys):
        code = main(["solve", "--method", "enet-mm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lam", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mu_mix" in capsys.readouterr().err


#: the flags each method runs with in TestSolveOutputs, short of lam or a grid
_METHOD_FLAGS = {"enet-rvm": ["--max-iter", "5"], "mxn-rvm": ["--max-iter", "5"],
                 "ridge": [], "loreta": [], "lasso-mm": ["--max-iter", "30"],
                 "enet-mm": ["--max-iter", "30", "--mu-mix", "0.2"],
                 "fusion-mm": ["--max-iter", "30"]}
#: the hyper_trace.csv columns after the step number, as Solution.hyper_trace names
_HYPER_COLUMNS = {"enet-rvm": ("alpha1", "k", "beta"), "mxn-rvm": ("alpha", "beta", "delta_l1")}


class TestSolveOutputs:
    @pytest.mark.parametrize("method, pick", [(m, []) for m in RVM_METHODS] + [
        (m, pick) for m in CLASSICAL_METHODS
        for pick in (["--lam", "0.5"], ["--lambda-grid", "0.01,1,100"])])
    def test_files_manifest_and_hyper_trace(self, sim_dir, tmp_path, method, pick):
        K, V = read_matrix(sim_dir / "K.mxio"), read_matrix(sim_dir / "V.mxio")
        out = tmp_path / "run"
        assert main(["solve", "--method", method, "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), *_METHOD_FLAGS[method], *pick,
                     "--out", str(out)]) == 0
        files = {"mu.mxio", "manifest.json", "timings.json"}
        keys = {"command", "method", "inputs", "config", "format_version", "converged"}
        if method in RVM_METHODS:
            files |= {"sigma_diag.mxio", "lambda_bar.mxio", "objective_trace.csv",
                      "hyper_trace.csv"}
            keys |= {"iterations", "objective_trace", "stop_reason",
                     "column_iterations" if method == "enet-rvm" else "alpha_final"}
        else:
            keys.add("selected_lambda")
            if pick[0] == "--lambda-grid":
                files.add("gcv_curve.csv")
                keys.add("selected_at_grid_edge")
            if method.endswith("-mm"):
                keys |= {"iterations", "final_step"}
        assert {path.name for path in out.iterdir()} == files
        assert set(json.loads((out / "manifest.json").read_text())) == keys
        if method in RVM_METHODS:
            solver = solve_enet if method == "enet-rvm" else solve_mxn
            sol = solver(ProblemData(K=K, V=V), SolverConfig(max_iter=5))
            hyper = np.loadtxt(out / "hyper_trace.csv", delimiter=",", ndmin=2)
            t = V.shape[1]
            # enet: alpha1, k and beta per column; mxn: one alpha, then beta
            # and delta_l1 per column
            width = 1 + 3 * t if method == "enet-rvm" else 2 + 2 * t
            assert hyper.shape == (sol.iterations, width)
            np.testing.assert_array_equal(hyper[:, 0], np.arange(1, sol.iterations + 1))
            want = np.column_stack([sol.hyper_trace[name] for name in _HYPER_COLUMNS[method]])
            np.testing.assert_array_equal(hyper[:, 1:], want)

    def test_timings_phases_and_blas_env(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lam", "0.5", "--out", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"read_s", "solve_s", "write_s", "blas_env"}
        assert all(timings[key] >= 0.0 for key in ("read_s", "solve_s", "write_s"))
        assert timings["blas_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                       "MKL_NUM_THREADS": None}


class TestEvalCommand:
    def test_self_evaluation_row(self, sim_dir, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["eval", "--mu", str(sim_dir / "J_true.mxio"),
                     "--truth", str(sim_dir / "J_true.mxio"),
                     "--support", str(sim_dir / "support_true.mxio"),
                     "--method", "truth", "--zero-tol", "0", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "1-corr", "Sp", "Sens", "Spec", "AUC"]
        assert rows[1][0] == "truth"
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-9)
        # skirt cells of the smooth patch sit below the 1% detection
        # threshold even in the truth itself, so Sens < 100 here
        assert float(rows[1][3]) > 80.0
        assert float(rows[1][4]) == 100.0
        assert float(rows[1][5]) == 100.0

    def test_binary_truth_scores_perfect(self, tmp_path):
        # with every active cell well above the detection threshold the
        # self-evaluation row is exactly (0, truth Sp, 100, 100, 100)
        truth = np.zeros((10, 4))
        truth[3, :] = 1.0
        truth[7, :] = -2.0
        tpath = tmp_path / "truth.mxio"
        spath = tmp_path / "support.mxio"
        write_matrix(tpath, truth)
        write_matrix(spath, (truth != 0).astype(float))
        out = tmp_path / "row.csv"
        code = main(["eval", "--mu", str(tpath), "--truth", str(tpath),
                     "--support", str(spath), "--zero-tol", "0", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[1][2]) == 80.0  # 32 of 40 cells are zero
        assert [float(x) for x in rows[1][3:]] == [100.0, 100.0, 100.0]

    def test_numeric_failure_exit_4(self, sim_dir, tmp_path):
        zero_k = tmp_path / "K0.mxio"
        write_matrix(zero_k, np.zeros((12, 48)))
        code = main(["solve", "--method", "enet-rvm", "--K", str(zero_k),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(tmp_path / "o")])
        assert code == 4

    def test_mxn_fixed_alpha_flag(self, sim_dir, tmp_path):
        out = tmp_path / "mxnfix"
        code = main(["solve", "--method", "mxn-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--fixed-alpha", "2.0",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["alpha_final"] == 2.0

    def test_missing_support_exit_2(self, sim_dir, tmp_path):
        code = main(["eval", "--mu", str(sim_dir / "J_true.mxio"),
                     "--truth", str(sim_dir / "J_true.mxio")])
        assert code == 2

    def test_shape_mismatch_exit_2(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.mxio"
        write_matrix(bad, np.ones((3, 3)))
        code = main(["eval", "--mu", str(bad), "--truth", str(sim_dir / "J_true.mxio"),
                     "--support", str(sim_dir / "support_true.mxio")])
        assert code == 2


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 12\nt = 8\npeak_snr_db = 42\nc_sigma_space = 2.0\n"
            "seeds = 0,1\n"
            "arm = enet-learned | method=enet-rvm\n"
            "arm = ridge-fixed | method=ridge lam=1.0\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # two arms x two seeds
        assert {r["arm"] for r in rows} == {"enet-learned", "ridge-fixed"}
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["AUC"]) > 50.0 for r in rows)

    def test_capped_mm_arm_not_converged_in_csv(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 12\nt = 8\npeak_snr_db = 42\nc_sigma_space = 2.0\nseeds = 0\n"
            "arm = capped | method=lasso-mm lam=1 max_iter=5\n"
            "arm = ridge-fixed | method=ridge lam=1.0\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["arm"]: r for r in csv.DictReader(fh)}
        assert rows["capped"]["error"] == ""
        assert rows["capped"]["converged"] == "False"
        assert rows["ridge-fixed"]["converged"] == "True"

    def test_learned_noise_arm_runs(self, tmp_path):
        # n = 40: with S >> N the learned noise update's denominator
        # N - S + 2 alpha1 sum(sigma/lambda_bar) is negative on the first
        # sweep and the arm's row records that numeric failure instead
        # (test_learned_noise_failure_message_in_row)
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 40\nt = 8\npeak_snr_db = 42\nc_sigma_space = 2.0\nseeds = 0\n"
            "arm = learned | method=enet-rvm beta_mode=learned learn_k=true alpha_init=1.5\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [""]
        manifest = json.loads((out / "runs" / "learned-seed0" / "manifest.json").read_text())
        assert manifest["config"]["beta_mode"] == "learned"
        assert manifest["config"]["alpha_init"] == 1.5

    def test_learned_noise_failure_message_in_row(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 12\nt = 8\npeak_snr_db = 42\nc_sigma_space = 2.0\nseeds = 0\n"
            "arm = learned | method=enet-rvm beta_mode=learned\n"
            "arm = ridge | method=ridge lam=1.0\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["arm"]: r for r in csv.DictReader(fh)}
        assert rows["learned"]["error"].startswith("numeric failure: column 0: ")
        assert "noise variance denominator is not positive" in rows["learned"]["error"]
        assert rows["ridge"]["error"] == ""

    def test_no_sim_cfg_written(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 4\n"
                        "arm = ridge | method=ridge lam=1.0\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        sim = out / "sim" / "seed4"
        assert not (sim / "sim.cfg").exists()
        config = json.loads((sim / "manifest.json").read_text())["config"]
        assert (config["s"], config["n"], config["t"], config["seed"]) == (48, 12, 8, 4)
        assert config["c_sigma_space"] == 2.0

    @pytest.mark.parametrize("line, key", [
        ("arm = a | method=ridge lam=1.0 voxels=3", "'voxels'"),
        ("arm = a | method=ridge lam=abc", "'lam'"),
        ("arm = a | method=enet-rvm learn_k=maybe", "'learn_k'"),
        ("arm = a | method=magic", "'magic'"),
        ("voxels = 3", "'voxels'"),
        ("n = twelve", "'n'"),
        ("seeds = 0,x", "'seeds'"),
        ("seeds = ,", "'seeds'"),
        ("seeds = 0,-1", "'seeds'"),
        ("seeds = 1,1", "'seeds'"),
    ])
    def test_bad_key_or_value_exit_2_before_any_run(self, tmp_path, capsys, line, key):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                        "arm = ok | method=ridge lam=1.0\n" + line + "\n")
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}:6:" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["abc", "-1,1"])
    def test_bad_lambda_grid_exit_2_before_any_run(self, tmp_path, capsys, grid):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                        "arm = ok | method=ridge lam=1.0\n"
                        f"arm = bad | method=ridge lambda_grid={grid}\n")
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}:6:" in err and "'lambda_grid'" in err
        assert not (out / "runs").exists()

    def test_two_jobs_write_what_one_job_writes(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0,1\n"
                        "arm = enet | method=enet-rvm\n"
                        "arm = ridge | method=ridge lambda_grid=0.01,1,100\n")
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert main(["sweep", "--spec", str(spec), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
        runs = sorted(p.name for p in (outs[0] / "runs").iterdir())
        assert runs == ["enet-seed0", "enet-seed1", "ridge-seed0", "ridge-seed1"]
        for run in runs:
            assert ((outs[0] / "runs" / run / "mu.mxio").read_bytes()
                    == (outs[1] / "runs" / run / "mu.mxio").read_bytes()), run

    @pytest.mark.parametrize("second, why", [
        ("ok", "used twice"), ("../../x", "must be"), ("a/b", "must be"), (".hidden", "must be"),
    ])
    def test_bad_arm_name_exit_2(self, tmp_path, capsys, second, why):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                        "arm = ok | method=ridge lam=1.0\n"
                        f"arm = {second} | method=ridge lam=2.0\n")
        out = tmp_path / "deep" / "sweep"
        capsys.readouterr()
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}:6:" in err and repr(second) in err and why in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, jobs):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                        "arm = ok | method=ridge lam=1.0\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()

    def test_empty_spec_exit_2(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_failing_arm_recorded(self, tmp_path):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0\n"
            "arm = ok | method=ridge lam=1.0\n"
            "arm = broken | method=enet-mm\n"  # missing mu_mix and grid
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["arm"]: r for r in csv.DictReader(fh)}
        assert rows["ok"]["error"] == ""
        assert rows["broken"]["error"] != ""


class TestFourEntryPoints:
    # one value per solve key, given as config-file text, as flags, as sweep
    # arm tokens and through a replay of the first run's manifest
    TEXT = {"max_iter": "2", "tol_mu": "0.25", "tol_objective": "1e-3", "learn_k": "no",
            "learn_alpha1": "off", "alpha1": "1.5", "alpha2": "20", "fixed_alpha": "2",
            "alpha_init": "1.25", "beta_mode": "fixed_one", "epsilon_prior": "0.02",
            "lam": "0.5", "mu_mix": "0.1", "eps_lqa": "1e-7", "lambda_grid": "0.1,1,10"}
    TYPED = {"max_iter": 2, "tol_mu": 0.25, "tol_objective": 1e-3, "learn_k": False,
             "learn_alpha1": False, "alpha1": 1.5, "alpha2": 20.0, "fixed_alpha": 2.0,
             "alpha_init": 1.25, "beta_mode": "fixed_one", "epsilon_prior": 0.02,
             "lam": 0.5, "mu_mix": 0.1, "eps_lqa": 1e-7, "lambda_grid": "0.1,1,10"}

    def test_every_solve_key_gives_one_config(self, sim_dir, tmp_path):
        assert set(self.TEXT) == set(SOLVE_KEYS)
        inputs = ["--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                  "--V", str(sim_dir / "V.mxio")]
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in self.TEXT.items()))
        assert main(["solve", *inputs, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        flags = [x for k, v in self.TEXT.items() for x in (f"--{k.replace('_', '-')}", v)]
        assert main(["solve", *inputs, *flags, "--out", str(tmp_path / "flags")]) == 0
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nseed = 3\npeak_snr_db = 42\n"
                        "c_sigma_space = 2.0\nseeds = 3\narm = all | method=enet-rvm "
                        + " ".join(f"{k}={v}" for k, v in self.TEXT.items()) + "\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
        assert main(["solve", "--replay", str(tmp_path / "file" / "manifest.json"),
                     "--out", str(tmp_path / "replay")]) == 0
        runs = ["file", "flags", "sweep/runs/all-seed3", "replay"]
        configs = [json.loads((tmp_path / run / "manifest.json").read_text())["config"]
                   for run in runs]
        for run, config in zip(runs, configs):
            assert config == self.TYPED, run
            assert {k: type(v) for k, v in config.items()} == \
                {k: type(v) for k, v in self.TYPED.items()}, run


class TestOutputRootEnv:
    def test_relative_out_honors_env(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("RVMIX_OUT_ROOT", str(tmp_path))
        code = main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lam", "1.0",
                     "--out", "nested/run"])
        assert code == 0
        assert (tmp_path / "nested" / "run" / "mu.mxio").exists()

    def test_relative_root_sweep(self, tmp_path, monkeypatch):
        # every directory is resolved against the root once: none of the
        # sweep's simulations or runs lands under root/root
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RVMIX_OUT_ROOT", "root")
        (tmp_path / "sweep.cfg").write_text(
            "s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0,1\n"
            "arm = ridge | method=ridge lam=1.0\n")
        assert main(["sweep", "--spec", "sweep.cfg", "--out", "sw"]) == 0
        with open(tmp_path / "root" / "sw" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == ["", ""]
        for seed in (0, 1):
            assert (tmp_path / "root" / "sw" / "sim" / f"seed{seed}" / "J_true.mxio").exists()
            assert (tmp_path / "root" / "sw" / "runs" / f"ridge-seed{seed}" / "mu.mxio").exists()
        assert not (tmp_path / "root" / "root").exists()
