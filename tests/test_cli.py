"""File formats, manifests, and the four batch commands."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rvmix import cli
from rvmix.baselines import PenaltySpec, mm_solve
from rvmix.cli import CLASSICAL_METHODS, METHOD_KEYS, RVM_METHODS, SOLVE_KEYS, main
from rvmix.enet import SolverConfig, solve_enet
from rvmix.errors import ConfigError, ContainerError, DomainError
from rvmix.mxio import MAGIC, container_sha256
from rvmix.mxio import parse_config_text, read_config_text, read_matrix, write_matrix
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

    @pytest.mark.parametrize("entry", ["write_matrix", "container_sha256"])
    def test_three_dimensional_array_rejected(self, tmp_path, entry):
        arr = np.zeros((2, 3, 4))
        with pytest.raises(DomainError, match="only 2-D matrices are supported"):
            write_matrix(tmp_path / "m.mxio", arr) if entry == "write_matrix" \
                else container_sha256(arr)
        assert not (tmp_path / "m.mxio").exists()


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

    @pytest.mark.parametrize("line, key", [
        # non-finite values that used to write non-finite J_true and V
        ("peak_snr_db = nan", "peak_snr_db"),
        ("a_amplitude = nan", "a_amplitude"),
        ("a_peak_time = nan", "a_peak_time"),
        ("b_freq = inf", "b_freq"),
        ("duration = 0", "duration"),
        # -inf dB used to write noise-free data with noise_sigma 0
        ("peak_snr_db = -inf", "peak_snr_db"),
        # values that used to end in a traceback
        ("r_electrodes = nan", "r_electrodes"),
        ("r_electrodes = inf", "r_electrodes"),
        ("c_center = nan", "c_center"),
        ("b_center = inf", "b_center"),
        # the range rules
        ("a_sigma_time = 0", "a_sigma_time"),
        ("c_sigma_space = -2", "c_sigma_space"),
        ("b_width = -1", "b_width"),
        ("c_truncate_frac = 1", "c_truncate_frac"),
    ])
    def test_bad_simulation_value_exit_2_before_any_matrix(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"s = 96\nn = 16\nt = 8\n{line}\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_snr_is_noise_free(self, tmp_path):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\npeak_snr_db = inf\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["noise_sigma"] == 0.0
        assert np.array_equal(read_matrix(out / "V.mxio"), read_matrix(out / "V_clean.mxio"))


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

    @pytest.mark.parametrize("method, mu_mix", [("lasso-mm", None), ("enet-mm", 0.2),
                                                ("fusion-mm", None)])
    def test_gcv_arm_is_the_selected_solve(self, sim_dir, tmp_path, method, mu_mix):
        # the map and the manifest's solve fields come from the selection's
        # winning fit: they are those of a fresh solve at the selected lambda
        out = tmp_path / method
        flags = ["--mu-mix", str(mu_mix)] if mu_mix else []
        assert main(["solve", "--method", method, "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--lambda-grid", "0.01,0.1,1,10",
                     "--max-iter", "30", *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        data = ProblemData(K=read_matrix(sim_dir / "K.mxio"), V=read_matrix(sim_dir / "V.mxio"))
        spec = PenaltySpec(kind=CLASSICAL_METHODS[method], lam=manifest["selected_lambda"],
                           mu_mix=mu_mix)
        J, info = mm_solve(data, spec, max_iter=30, return_info=True)
        assert read_matrix(out / "mu.mxio").tobytes() == J.tobytes()
        assert manifest["iterations"] == info.iterations
        assert manifest["final_step"] == info.final_step
        assert manifest["converged"] is info.converged

    def test_inputs_hash_the_container_bytes(self, sim_dir, tmp_path):
        # a CSV copy of V hashes as the container it was written from
        v_csv = tmp_path / "V.csv"
        np.savetxt(v_csv, read_matrix(sim_dir / "V.mxio"), delimiter=",", fmt="%.17g")
        inputs = {}
        for name, v_path in (("mxio", sim_dir / "V.mxio"), ("csv", v_csv)):
            out = tmp_path / name
            assert main(["solve", "--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                         "--V", str(v_path), "--lam", "1", "--out", str(out)]) == 0
            inputs[name] = json.loads((out / "manifest.json").read_text())["inputs"]
        for name in ("K", "V"):
            digest = hashlib.sha256((sim_dir / f"{name}.mxio").read_bytes()).hexdigest()
            assert inputs["mxio"][f"{name}_sha256"] == digest
            assert inputs["csv"][f"{name}_sha256"] == digest
        assert inputs["csv"]["V"] == str(v_csv)

    def test_replay_of_an_edited_input_exit_2(self, sim_dir, tmp_path, capsys):
        for name in ("K.mxio", "V.mxio"):
            (tmp_path / name).write_bytes((sim_dir / name).read_bytes())
        first = tmp_path / "first"
        assert main(["solve", "--method", "ridge", "--K", str(tmp_path / "K.mxio"),
                     "--V", str(tmp_path / "V.mxio"), "--lam", "1", "--out", str(first)]) == 0
        again = tmp_path / "again"
        assert main(["solve", "--replay", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        for name in ("mu.mxio", "manifest.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()
        V = read_matrix(tmp_path / "V.mxio")
        V[0, 0] += 1e-12
        write_matrix(tmp_path / "V.mxio", V)
        capsys.readouterr()
        edited = tmp_path / "edited"
        assert main(["solve", "--replay", str(first / "manifest.json"),
                     "--out", str(edited)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "V.mxio") in err and "sha256" in err
        assert not edited.exists()

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

    def test_every_solve_key_has_a_flag(self, sim_dir, tmp_path):
        # a flag stays text until solve_config converts it as config text,
        # so each key's flag text reaches the manifest typed
        sample = {int: ("3", 3), float: ("0.5", 0.5), str: ("fixed_one", "fixed_one"),
                  SOLVE_KEYS["lambda_grid"]: ("0.1,1", "0.1,1")}
        # what the first method that reads the key needs beside it
        companion = {"alpha1": ["--alpha2", "1"], "alpha2": ["--alpha1", "1"],
                     "mu_mix": ["--lam", "1"], "eps_lqa": ["--lam", "1"]}
        for key, kind in SOLVE_KEYS.items():
            method = next(m for m, keys in METHOD_KEYS.items() if key in keys)
            text, typed = sample[kind]
            out = tmp_path / key
            assert main(["solve", "--method", method, "--K", str(sim_dir / "K.mxio"),
                         "--V", str(sim_dir / "V.mxio"), f"--{key.replace('_', '-')}", text,
                         *companion.get(key, []), "--out", str(out)]) == 0, key
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config[key] == typed and type(config[key]) is type(typed), key

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
        # a solve removes the names of cli.SOLVE_FILES it does not write
        assert files - {"manifest.json", "timings.json"} <= set(cli.SOLVE_FILES)
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

    @pytest.mark.parametrize("first, second", [
        (["--method", "lasso-mm", "--lambda-grid", "0.1,1,10"], ["--method", "lasso-mm",
                                                                 "--lam", "1"]),
        (["--method", "enet-rvm"], ["--method", "ridge", "--lam", "1"]),
    ])
    def test_no_file_left_from_an_earlier_solve(self, sim_dir, tmp_path, first, second):
        out = tmp_path / "run"
        for flags in (first, second):
            assert main(["solve", *flags, "--K", str(sim_dir / "K.mxio"),
                         "--V", str(sim_dir / "V.mxio"), "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == {"mu.mxio", "manifest.json",
                                                         "timings.json"}

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

    def test_failed_solve_leaves_no_earlier_run(self, sim_dir, tmp_path):
        # the second solve into run/ fails (V x 1e200 overflows the ridge
        # start); the first run's manifest and map must not outlive it and
        # claim the directory
        run = tmp_path / "run"
        solve = ["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                 "--out", str(run), "--max-iter", "3"]
        assert main(solve + ["--V", str(sim_dir / "V.mxio")]) == 0
        assert (run / "manifest.json").exists() and (run / "mu.mxio").exists()
        huge = tmp_path / "V_huge.mxio"
        write_matrix(huge, read_matrix(sim_dir / "V.mxio") * 1e200)
        assert main(solve + ["--V", str(huge)]) == 4
        assert not (run / "manifest.json").exists()
        assert not (run / "mu.mxio").exists()

    def test_non_finite_mm_objective_exit_4(self, tmp_path, capsys):
        # fusion at lam = 1e100 on V x 1e151 overflows to a nan objective on
        # its second step; the run fails instead of writing a NaN map
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\nseed = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        huge = tmp_path / "V_huge.mxio"
        write_matrix(huge, read_matrix(tmp_path / "sim" / "V.mxio") * 1e151)
        capsys.readouterr()
        code = main(["solve", "--method", "fusion-mm", "--K", str(tmp_path / "sim" / "K.mxio"),
                     "--V", str(huge), "--lam", "1e100", "--out", str(tmp_path / "o")])
        assert code == 4
        assert "objective is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "mu.mxio").exists()

    def test_underflowing_global_scale_exit_4(self, tmp_path, capsys):
        # mxn on K x 1e-150: alpha * delta**2 underflows in the alpha search
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\nseed = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        tiny = tmp_path / "K_tiny.mxio"
        write_matrix(tiny, read_matrix(tmp_path / "sim" / "K.mxio") * 1e-150)
        capsys.readouterr()
        code = main(["solve", "--method", "mxn-rvm", "--K", str(tiny),
                     "--V", str(tmp_path / "sim" / "V.mxio"), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "global scale update" in err and "underflows to 0" in err
        assert not (tmp_path / "o" / "mu.mxio").exists()

    def test_mxn_fixed_alpha_flag(self, sim_dir, tmp_path):
        out = tmp_path / "mxnfix"
        code = main(["solve", "--method", "mxn-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--fixed-alpha", "2.0",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["alpha_final"] == 2.0

    @pytest.mark.parametrize("zero_tol", ["-1", "nan", "1", "2"])
    def test_zero_tol_outside_unit_interval_exit_2(self, sim_dir, tmp_path, capsys, zero_tol):
        capsys.readouterr()
        code = main(["eval", "--mu", str(sim_dir / "J_true.mxio"),
                     "--truth", str(sim_dir / "J_true.mxio"),
                     "--support", str(sim_dir / "support_true.mxio"),
                     "--zero-tol", zero_tol, "--out", str(tmp_path / "row.csv")])
        assert code == 2
        assert "zero_tol_rel" in capsys.readouterr().err
        assert not (tmp_path / "row.csv").exists()

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
        # n = 40: the data leave the noise enough degrees of freedom that no
        # column's learned noise variance ends at the floor (at n = 12 every
        # one does: test_learned_noise_at_the_floor_in_manifest)
        spec = tmp_path / "sweep.cfg"
        spec.write_text(
            "s = 48\nn = 40\nt = 8\npeak_snr_db = 42\nc_sigma_space = 2.0\nseeds = 0\n"
            "arm = learned | method=enet-rvm beta_mode=learned\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [""]
        manifest = json.loads((out / "runs" / "learned-seed0" / "manifest.json").read_text())
        assert manifest["config"] == {"beta_mode": "learned"}
        assert manifest["beta_floor_columns"] == []

    def test_learned_noise_at_the_floor_in_manifest(self, tmp_path):
        # at S >> N the learned noise variance of every column ends at the
        # floor: the run finishes, and its manifest names those columns
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
        assert rows["learned"]["error"] == ""
        assert rows["ridge"]["error"] == ""
        manifest = json.loads((out / "runs" / "learned-seed0" / "manifest.json").read_text())
        assert manifest["beta_floor_columns"] == list(range(8))
        beta = np.loadtxt(out / "runs" / "learned-seed0" / "hyper_trace.csv", delimiter=",",
                          ndmin=2)[-1, 1:][16:24]  # step, alpha1 x 8, k x 8, beta x 8
        assert np.all(beta == 1e-12)
        ridge = json.loads((out / "runs" / "ridge-seed0" / "manifest.json").read_text())
        assert "beta_floor_columns" not in ridge

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

    @pytest.mark.parametrize("line, key", [("duration = 0", "duration"),
                                           ("b_freq = inf", "b_freq"),
                                           ("peak_snr_db = nan", "peak_snr_db"),
                                           ("t = 4", "T >= 8")])
    def test_bad_simulation_value_exit_2_before_any_matrix(self, tmp_path, capsys, line, key):
        # every seed's simulation is checked before the sweep makes out/
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0,1\n"
                        "arm = ok | method=ridge lam=1.0\n" + line + "\n")
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_each_seed_reads_k_and_v_once(self, tmp_path, monkeypatch):
        # the sweep reads a seed's K and V once and hands them to every arm,
        # which it scores from memory: no run's mu.mxio or manifest is read back
        reads, opened = {}, []
        real = cli.read_matrix

        def counting(path):
            key = (Path(path).parent.name, Path(path).name)
            reads[key] = reads.get(key, 0) + 1
            return real(path)

        def recording_open(path, mode="r", *args, **kwargs):
            opened.append((str(path), mode))
            return open(path, mode, *args, **kwargs)

        def recording_read_text(path):
            opened.append((str(path), "r"))
            return read_config_text(path)

        monkeypatch.setattr(cli, "read_matrix", counting)
        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(cli, "read_config_text", recording_read_text)
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\nseeds = 0,1\n"
                        "arm = ridge | method=ridge lam=1.0\n"
                        "arm = loreta | method=loreta lambda_grid=0.1,1,10\n"
                        "arm = lasso | method=lasso-mm lam=1 max_iter=5\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        for seed in (0, 1):
            assert reads[(f"seed{seed}", "K.mxio")] == 1
            assert reads[(f"seed{seed}", "V.mxio")] == 1
        assert set(reads) == {(f"seed{seed}", f"{name}.mxio")
                              for seed in (0, 1) for name in ("K", "V")}
        assert [path for path, mode in opened if "r" in mode] == [str(spec)]
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["error"] for r in csv.DictReader(fh)] == [""] * 6
        manifest = json.loads((out / "runs" / "lasso-seed1" / "manifest.json").read_text())
        assert manifest["inputs"]["V"] == str(out / "sim" / "seed1" / "V.mxio")
        assert manifest["inputs"]["V_sha256"] == hashlib.sha256(
            (out / "sim" / "seed1" / "V.mxio").read_bytes()).hexdigest()

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
            # a valid scale so small that the prior variances 1/(2 alpha)
            # square past the float range, which only the run finds
            "arm = broken | method=mxn-rvm fixed_alpha=1e-300\n"
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["arm"]: r for r in csv.DictReader(fh)}
        assert rows["ok"]["error"] == ""
        assert rows["broken"]["error"].startswith(
            "numeric failure: column 0: iteration 1, posterior variance overflows")


class TestFourEntryPoints:
    # one value per solve key, given as config-file text, as flags, as sweep
    # arm tokens and through a replay of the first run's manifest, in one run
    # per method family; the families' keys together cover SOLVE_KEYS
    TEXT = {"max_iter": "2", "tol_mu": "0.25", "tol_objective": "1e-3", "alpha1": "1.5",
            "alpha2": "20", "fixed_alpha": "2", "beta_mode": "fixed_one",
            "epsilon_prior": "0.02", "lam": "0.5", "mu_mix": "0.1", "eps_lqa": "1e-7",
            "lambda_grid": "0.1,1,10"}
    TYPED = {"max_iter": 2, "tol_mu": 0.25, "tol_objective": 1e-3, "alpha1": 1.5,
             "alpha2": 20.0, "fixed_alpha": 2.0, "beta_mode": "fixed_one",
             "epsilon_prior": 0.02, "lam": 0.5, "mu_mix": 0.1, "eps_lqa": 1e-7,
             "lambda_grid": "0.1,1,10"}
    FAMILIES = {"enet-rvm": METHOD_KEYS["enet-rvm"], "mxn-rvm": METHOD_KEYS["mxn-rvm"],
                "enet-mm": ("lam", "eps_lqa", "max_iter", "mu_mix"), "ridge": ("lambda_grid",)}

    def test_every_solve_key_gives_one_config(self, sim_dir, tmp_path):
        assert set(self.TEXT) == set(SOLVE_KEYS)
        assert {key for keys in self.FAMILIES.values() for key in keys} == set(SOLVE_KEYS)
        spec = tmp_path / "sweep.cfg"
        spec.write_text("s = 48\nn = 12\nt = 8\nseed = 3\npeak_snr_db = 42\n"
                        "c_sigma_space = 2.0\nseeds = 3\n" + "".join(
                            f"arm = {method} | method={method} "
                            + " ".join(f"{k}={self.TEXT[k]}" for k in keys) + "\n"
                            for method, keys in self.FAMILIES.items()))
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == 0
        for method, keys in self.FAMILIES.items():
            base = tmp_path / method
            inputs = ["--method", method, "--K", str(sim_dir / "K.mxio"),
                      "--V", str(sim_dir / "V.mxio")]
            cfg = tmp_path / f"{method}.cfg"
            cfg.write_text("".join(f"{k} = {self.TEXT[k]}\n" for k in keys))
            assert main(["solve", *inputs, "--config", str(cfg), "--out", str(base / "file")]) == 0
            flags = [x for k in keys for x in (f"--{k.replace('_', '-')}", self.TEXT[k])]
            assert main(["solve", *inputs, *flags, "--out", str(base / "flags")]) == 0
            assert main(["solve", "--replay", str(base / "file" / "manifest.json"),
                         "--out", str(base / "replay")]) == 0
            typed = {k: self.TYPED[k] for k in keys}
            runs = [base / "file", base / "flags", tmp_path / "sweep" / "runs" / f"{method}-seed3",
                    base / "replay"]
            for run in runs:
                config = json.loads((run / "manifest.json").read_text())["config"]
                assert config == typed, run
                assert {k: type(v) for k, v in config.items()} == \
                    {k: type(v) for k, v in typed.items()}, run


#: a method, keys (as JSON values) it must not be given beside what it needs,
#: and the key the rejection names
_REJECTED = [
    ("ridge", {"lam": 1.0, "eps_lqa": 1e-7}, "eps_lqa"),
    ("ridge", {"lam": 1.0, "max_iter": 5}, "max_iter"),
    ("lasso-mm", {"lam": 1.0, "mu_mix": 0.1}, "mu_mix"),
    ("lasso-mm", {"lam": 1.0, "lambda_grid": "0.1,1"}, "lambda_grid"),
    ("enet-rvm", {"learn_k": True}, "learn_k"),
]


#: a method, keys (as JSON values) whose values it rejects, and the rule's words
_BAD_VALUES = [
    ("enet-rvm", {"alpha1": 1.0}, "need both alpha1 and alpha2"),
    ("enet-rvm", {"alpha1": -1.0, "alpha2": 1.0}, "alpha1 > 0"),
    ("mxn-rvm", {"fixed_alpha": -2.0}, "fixed_alpha must be positive"),
    ("mxn-rvm", {"max_iter": 0}, "max_iter must be >= 1"),
    ("enet-mm", {"lam": 1.0, "mu_mix": 1.5}, "mu_mix in (0, 1)"),
    ("enet-mm", {"lam": 1.0}, "mu_mix in (0, 1)"),
    ("lasso-mm", {"lam": -1.0}, "lam must be positive"),
    ("enet-rvm", {"tol_mu": float("nan")}, "tol_mu must be positive and finite"),
    ("mxn-rvm", {"tol_objective": float("nan")}, "tol_objective must be positive and finite"),
    ("enet-rvm", {"epsilon_prior": float("inf")}, "epsilon_prior must be positive and finite"),
    ("enet-rvm", {"alpha1": float("nan"), "alpha2": 1.0}, "finite alpha1 > 0"),
    ("lasso-mm", {"lam": 1.0, "eps_lqa": -1.0}, "eps_lqa must be positive and finite"),
    ("enet-mm", {"lam": 1.0, "mu_mix": 0.2, "eps_lqa": float("nan")},
     "eps_lqa must be positive and finite"),
    ("fusion-mm", {"lam": 1.0, "max_iter": -3}, "max_iter must be >= 0"),
]


class TestMethodKeys:
    def test_table_covers_solve_keys(self):
        assert set(METHOD_KEYS) == {*RVM_METHODS, *CLASSICAL_METHODS}
        assert {key for keys in METHOD_KEYS.values() for key in keys} == set(SOLVE_KEYS)

    @pytest.mark.parametrize("entry", ["flag", "config", "arm", "replay"])
    @pytest.mark.parametrize("method, given, key", _REJECTED)
    def test_rejected_before_any_output(self, sim_dir, tmp_path, capsys, entry, method,
                                        given, key):
        inputs = ["--method", method, "--K", str(sim_dir / "K.mxio"),
                  "--V", str(sim_dir / "V.mxio")]
        out = tmp_path / "o"
        if entry == "flag":
            argv = ["solve", *inputs, "--out", str(out)]
            argv += [x for k, v in given.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        elif entry == "config":
            cfg = tmp_path / "solve.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in given.items()))
            argv = ["solve", *inputs, "--config", str(cfg), "--out", str(out)]
        elif entry == "arm":
            spec = tmp_path / "sweep.cfg"
            spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                            f"arm = a | method={method} "
                            + " ".join(f"{k}={v}" for k, v in given.items()) + "\n")
            argv = ["sweep", "--spec", str(spec), "--out", str(out)]
        else:
            first = tmp_path / "first"
            needs = ["--lam", "1"] if method in CLASSICAL_METHODS else []
            assert main(["solve", *inputs, *needs, "--out", str(first)]) == 0
            manifest = json.loads((first / "manifest.json").read_text())
            manifest["config"].update(given)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(manifest))
            argv = ["solve", "--replay", str(bad), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        if entry == "flag" and key not in SOLVE_KEYS:
            # a removed key has no flag: argparse rejects it before any command runs
            assert f"--{key.replace('_', '-')}" in err
        else:
            assert repr(key) in err and repr(method) in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["flag", "config", "arm", "replay"])
    @pytest.mark.parametrize("method, given, rule", _BAD_VALUES)
    def test_bad_value_rejected_before_any_output(self, sim_dir, tmp_path, capsys, entry,
                                                  method, given, rule):
        inputs = ["--method", method, "--K", str(sim_dir / "K.mxio"),
                  "--V", str(sim_dir / "V.mxio")]
        out = tmp_path / "o"
        if entry == "flag":
            source = "solve flags"
            argv = ["solve", *inputs, "--out", str(out)]
            argv += [x for k, v in given.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        elif entry == "config":
            source = tmp_path / "solve.cfg"
            source.write_text("".join(f"{k} = {v}\n" for k, v in given.items()))
            argv = ["solve", *inputs, "--config", str(source), "--out", str(out)]
        elif entry == "arm":
            spec = tmp_path / "sweep.cfg"
            spec.write_text("s = 48\nn = 12\nt = 8\nc_sigma_space = 2.0\n"
                            f"arm = a | method={method} "
                            + " ".join(f"{k}={v}" for k, v in given.items()) + "\n")
            source = f"{spec}:5: arm 'a'"
            argv = ["sweep", "--spec", str(spec), "--out", str(out)]
        else:
            source = tmp_path / "bad.json"
            source.write_text(json.dumps({
                "command": "solve", "method": method, "config": given,
                "inputs": {"K": str(sim_dir / "K.mxio"), "V": str(sim_dir / "V.mxio")}}))
            argv = ["solve", "--replay", str(source), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{source}: " in err and rule in err
        assert not out.exists()

    def test_classical_method_needs_lam_or_grid(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solve", "--method", "loreta", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--out", str(out)]) == 2
        assert "exactly one of 'lam' and 'lambda_grid'" in capsys.readouterr().err
        assert not out.exists()


class TestErrorExits:
    """Usage errors exit 2 and name their source; numeric failures exit 4."""

    @pytest.mark.parametrize("manifest, message", [
        ({"command": "simulate"}, "is not a solve manifest"),
        (["solve"], "is not a solve manifest"),
        ({"command": "solve", "inputs": {"K": "K.mxio", "V": "V.mxio"}},
         "method or inputs missing"),
        ({"command": "solve", "method": "ridge"}, "method or inputs missing"),
        ({"command": "solve", "method": ["ridge"], "inputs": {"K": "K.mxio", "V": "V.mxio"}},
         "method or inputs missing"),
        ({"command": "solve", "method": "ridge", "inputs": {"K": None, "V": "V.mxio"}},
         "method or inputs missing"),
        # a path of 0 would open file descriptor 0, stdin
        ({"command": "solve", "method": "ridge", "inputs": {"K": 0, "V": "V.mxio"}},
         "method or inputs missing"),
        ({"command": "solve", "method": "ridge", "inputs": {"K": "K.mxio", "V": "V.mxio"},
          "config": ["lam", 1.0]}, "config must be a JSON object"),
    ])
    def test_bad_replay_manifest(self, tmp_path, capsys, manifest, message):
        source = tmp_path / "manifest.json"
        source.write_text(json.dumps(manifest))
        assert main(["solve", "--replay", str(source), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(source) in err and message in err
        assert not (tmp_path / "o").exists()

    def test_replay_manifest_not_json(self, tmp_path, capsys):
        source = tmp_path / "manifest.json"
        source.write_text('{"command": "solve",')
        assert main(["solve", "--replay", str(source), "--out", str(tmp_path / "o")]) == 2
        assert f"{source} is not JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [("simulate", "--config"),
                                               ("solve", "--config"), ("sweep", "--spec")])
    def test_config_not_utf8_exit_2(self, sim_dir, tmp_path, capsys, command, flag):
        source = tmp_path / "bad.cfg"
        source.write_bytes(b"s = 48\n\xff\n")
        inputs = (["--method", "ridge", "--K", str(sim_dir / "K.mxio"),
                   "--V", str(sim_dir / "V.mxio")] if command == "solve" else [])
        assert main([command, *inputs, flag, str(source), "--out", str(tmp_path / "o")]) == 2
        assert f"{source} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given", [
        ["--max-iter", "2", "--method", "ridge"],
        ["--K", "K.mxio", "--V", "V.mxio"],
        ["--config", "missing.cfg"],
        ["--tol-mu", "0.5"],
    ])
    def test_replay_takes_no_other_input(self, sim_dir, tmp_path, capsys, given):
        # the manifest alone sets a replay; the check comes before the
        # manifest or a config file is read
        first = tmp_path / "first"
        assert main(["solve", "--method", "enet-rvm", "--K", str(sim_dir / "K.mxio"),
                     "--V", str(sim_dir / "V.mxio"), "--max-iter", "3", "--out", str(first)]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        for replay in (first / "manifest.json", tmp_path / "missing.json"):
            assert main(["solve", "--replay", str(replay), *given, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "--replay takes no other solve input" in err
            assert all(flag in err for flag in given if flag.startswith("--"))
        assert not out.exists()

    @pytest.mark.parametrize("drop", ["--method", "--K", "--V"])
    def test_solve_needs_method_and_inputs(self, sim_dir, tmp_path, capsys, drop):
        given = {"--method": "ridge", "--K": str(sim_dir / "K.mxio"),
                 "--V": str(sim_dir / "V.mxio")}
        del given[drop]
        argv = ["solve", *[x for pair in given.items() for x in pair], "--lam", "1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "solve needs --method, --K and --V" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("arm, message", [
        ("ridge method=ridge lam=1", "arm needs 'name | key=value ...'"),
        ("ridge | method=ridge lam", "bad arm token 'lam'"),
    ])
    def test_malformed_arm(self, tmp_path, capsys, arm, message):
        spec = tmp_path / "sweep.cfg"
        spec.write_text(f"s = 48\nn = 12\nt = 8\narm = {arm}\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")]) == 2
        assert f"{spec}:4: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_eval_support_shape(self, sim_dir, tmp_path, capsys):
        support = tmp_path / "support.mxio"
        write_matrix(support, read_matrix(sim_dir / "support_true.mxio")[:, :-1])
        assert main(["eval", "--mu", str(sim_dir / "J_true.mxio"),
                     "--truth", str(sim_dir / "J_true.mxio"), "--support", str(support)]) == 2
        assert "shape mismatch: support (48, 7) vs estimate (48, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["enet-rvm", "mxn-rvm"])
    def test_overflowing_scale_exit_4(self, tmp_path, capsys, method):
        # V x 1e150 is beyond the float range of the variance updates
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\nseed = 0\nc_sigma_space = 2.0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        huge = tmp_path / "V_huge.mxio"
        write_matrix(huge, read_matrix(tmp_path / "sim" / "V.mxio") * 1e150)
        capsys.readouterr()
        code = main(["solve", "--method", method, "--K", str(tmp_path / "sim" / "K.mxio"),
                     "--V", str(huge), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numeric failure: column 0: iteration 1, " in err and "overflows" in err
        assert not (tmp_path / "o" / "mu.mxio").exists()


    @pytest.mark.parametrize("method, where", [("enet-rvm", "column 0: starting variance scale"),
                                               ("mxn-rvm", "column 0: iteration 1, "
                                                           "posterior evidence")])
    def test_overflowing_data_exit_4(self, tmp_path, capsys, method, where):
        # V x 1e200 overflows before any variance update: the elastic net's
        # ridge start, the mixed norm's ||C^-1 v||**2 in its first posterior
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\nseed = 0\nc_sigma_space = 2.0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        huge = tmp_path / "V_huge.mxio"
        write_matrix(huge, read_matrix(tmp_path / "sim" / "V.mxio") * 1e200)
        capsys.readouterr()
        code = main(["solve", "--method", method, "--K", str(tmp_path / "sim" / "K.mxio"),
                     "--V", str(huge), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"numeric failure: {where}" in err and "overflow" in err
        assert not (tmp_path / "o" / "mu.mxio").exists()

    @pytest.mark.parametrize("method", ["enet-rvm", "mxn-rvm"])
    def test_underflowing_lead_field_exit_4(self, tmp_path, capsys, method):
        # K x 1e-200 squares its singular values to 0 in the ridge start,
        # which both solvers take; the mixed norm used to exit 2 with
        # "mu must be finite" after two bare warnings
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s = 96\nn = 16\nt = 8\nseed = 0\nc_sigma_space = 2.0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        tiny = tmp_path / "K_tiny.mxio"
        write_matrix(tiny, read_matrix(tmp_path / "sim" / "K.mxio") * 1e-200)
        capsys.readouterr()
        code = main(["solve", "--method", method, "--K", str(tiny),
                     "--V", str(tmp_path / "sim" / "V.mxio"), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numeric failure: column 0: ridge start: " in err and "underflow" in err
        assert not (tmp_path / "o" / "mu.mxio").exists()

def fresh_python(*args):
    """Run a fresh interpreter that imports rvmix from src/."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


def run_demo(name):
    """Run demos/<name> in a fresh interpreter that imports rvmix from src/."""
    return fresh_python(str(Path(__file__).resolve().parents[1] / "demos" / name))


def test_import_leaves_out_stats_and_integrate():
    # no solver path needs them, and they add hundreds of modules to the import
    proc = fresh_python("-c", "import sys, rvmix; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "rvmix.special" in loaded
    for name in ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse"):
        assert name not in loaded
    # the import is most of every run's set-up time: a new heavy dependency
    # fails here before it shows as a slower start
    assert len(loaded) <= 590, f"import rvmix loads {len(loaded)} modules"


def test_batch_pipeline_demo_runs():
    # the demo drives arm keys, --jobs 2 and replay through the CLI
    proc = run_demo("06_batch_pipeline.py")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["01_prior_mixture.py", "02_ring_phantom.py",
                                  "03_learned_vs_fixed_enet.py", "04_mixed_norm_solver.py",
                                  "05_classical_arms.py"])
def test_solver_demo_runs(name):
    # the demos drive the public API: the quadrature oracle (01), the
    # phantom (02), the learned k and alpha searches (03, 04), and the
    # classical arms with GCV (05)
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


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
