"""End-to-end CLI flows: subcommands, file schemas, determinism, exit codes."""

import json

import numpy as np
import pytest

from dppmle.cli import main
from dppmle.errors import ConfigError
from dppmle.experiments import (
    ExperimentConfig,
    config_from_dict,
    preset_configs,
    run_experiment,
    write_results,
)
from dppmle.kernels import kernel_from_text, save_kernel, validate_kernel
from dppmle.sampling import load_batch

DENSE2 = np.array([[1.0, 1.0], [1.0, 2.0]])


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.txt"
    save_kernel(validate_kernel(DENSE2, "ensemble"), path)
    return path


class TestSampleCommand:
    def test_writes_loadable_batch(self, tmp_path, kernel_file):
        out = tmp_path / "batch.csv"
        code = main([
            "sample", "--kernel", str(kernel_file), "--n", "200",
            "--seed", "5", "--sampler", "enumeration", "--out", str(out),
        ])
        assert code == 0
        batch = load_batch(out)
        assert len(batch) == 200
        assert batch.n_ground == 2

    def test_inline_kernel(self, tmp_path):
        out = tmp_path / "batch.csv"
        code = main(["sample", "--kernel", "1 1; 1 2", "--n", "50", "--out", str(out)])
        assert code == 0
        assert len(load_batch(out)) == 50


class TestEstimateCommand:
    def test_closed_form_round(self, tmp_path, kernel_file, capsys):
        batch_path = tmp_path / "batch.csv"
        main(["sample", "--kernel", str(kernel_file), "--n", "30000",
              "--seed", "1", "--sampler", "enumeration", "--out", str(batch_path)])
        est_path = tmp_path / "estimate.txt"
        code = main([
            "estimate", "--batch", str(batch_path), "--method", "closed2x2",
            "--kernel", str(kernel_file), "--out", str(est_path),
        ])
        assert code == 0
        estimate = kernel_from_text(est_path.read_text())
        assert np.max(np.abs(estimate.entries - DENSE2)) < 0.1
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["method"] == "closed2x2"
        assert report["distance"] < 0.1

    def test_newton_method(self, tmp_path, kernel_file, capsys):
        batch_path = tmp_path / "batch.csv"
        main(["sample", "--kernel", str(kernel_file), "--n", "5000",
              "--seed", "2", "--sampler", "enumeration", "--out", str(batch_path)])
        code = main([
            "estimate", "--batch", str(batch_path), "--method", "newton",
            "--l0", "0.5 0.1; 0.1 0.5", "--iters", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip().splitlines()[-1])["status"] == "converged"


class TestExperimentCommand:
    def test_twobytwo_preset_outputs(self, tmp_path):
        out = tmp_path / "runs"
        code = main([
            "experiment", "--preset", "twobytwo", "--seed", "0", "1", "--out", str(out),
        ])
        assert code == 0
        runs = (out / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "kernel,n,seed,method,iterations,status,distance,estimate"
        # 4 sample sizes x 2 seeds
        assert len(runs) == 9
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["method"] == "closed2x2"
        assert set(summary[0]["median_distance"]) == {"300", "3000", "10000", "30000"}

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        args = ["experiment", "--kernel", "1 1; 1 2", "--method", "closed2x2",
                "--n", "500", "1000", "--seed", "3", "4"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert (first / "runs.csv").read_bytes() == (second / "runs.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()

    def test_empty_sample_sizes_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel": [[1, 0], [0, 1]], "sample_sizes": []}))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_config_file_carries_output_dir(self, tmp_path):
        out = tmp_path / "from-config"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kernel": [[1.0, 1.0], [1.0, 2.0]],
            "method": "closed2x2",
            "sample_sizes": [500],
            "seeds": [0],
            "output_dir": str(out),
        }))
        assert main(["experiment", "--config", str(config)]) == 0
        assert (out / "runs.csv").exists()

    def test_divergence_is_recorded_not_fatal(self, tmp_path):
        # plain SGD on the repulsive 2x2 benchmark diverges; the run must
        # complete and carry the status in its row
        out = tmp_path / "runs"
        code = main([
            "experiment", "--kernel", "1 1; 1 2", "--method", "sgd",
            "--n", "2000", "--seed", "0", "--iters", "20000", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "runs.csv").read_text().strip().splitlines()[1:]
        assert any("diverged" in row for row in rows)


class TestBerryEsseenCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = main([
            "berry-esseen", "--sizes", "100", "400", "--reps", "400",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,ks_distance,reps,seed"
        assert len(lines) == 3


class TestVerifyCommand:
    def test_quick_level_passes(self, capsys):
        code = main(["verify", "--level", "quick", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln.startswith("[")]
        assert len(lines) == 6
        assert all(ln.startswith("[PASS]") for ln in lines)

    def test_deterministic_output(self, capsys):
        main(["verify", "--level", "quick", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--level", "quick", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_full_level_adds_clt_check(self, capsys):
        code = main(["verify", "--level", "full", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln.startswith("[")]
        assert len(lines) == 7
        assert "monte-carlo-clt-covariance" in lines[-1]


class TestInputBoundary:
    """Malformed input ends in one line on stderr and exit code 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--kernel", "1 x; 1 2", "--n", "5"],
        ["estimate", "--batch", "{batch}", "--method", "block", "--blocks", "[[0,1"],
        ["estimate", "--batch", "{batch}", "--method", "block", "--blocks", "[[0,1,2]]"],
        ["estimate", "--batch", "{batch}", "--method", "block", "--blocks", "[[0,0]]"],
        ["experiment", "--config", "{malformed}", "--out", "{out}"],
        ["experiment", "--config", "{non_numeric}", "--out", "{out}"],
        ["estimate", "--batch", "{bad_batch}", "--method", "moments"],
    ], ids=["inline-kernel", "blocks-json", "blocks-triple", "blocks-repeat",
            "config-json", "config-kernel-entry", "batch-mask"])
    def test_exit_code_and_one_line(self, argv, tmp_path, kernel_file, capsys):
        paths = {
            "batch": tmp_path / "batch.csv",
            "malformed": tmp_path / "malformed.json",
            "non_numeric": tmp_path / "non_numeric.json",
            "out": tmp_path / "out",
            "bad_batch": tmp_path / "bad_batch.csv",
        }
        main(["sample", "--kernel", str(kernel_file), "--n", "100", "--out", str(paths["batch"])])
        paths["malformed"].write_text('{"kernel": [[1, 0], [0')
        paths["non_numeric"].write_text(json.dumps({"kernel": [["x", 0], [0, 1]], "sample_sizes": [10]}))
        paths["bad_batch"].write_text("# n_ground=2\nindex,mask,items\n0,x,\n")
        capsys.readouterr()
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestConfigValidation:
    def test_method_kernel_shape(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", np.eye(3), "closed2x2", (100,), (0,)).validated()

    def test_block_needs_structure(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", np.eye(4), "block", (100,), (0,)).validated()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kernel": [[1]], "bogus": 1})

    def test_presets_validate(self):
        for config in preset_configs("table1") + preset_configs("twobytwo"):
            config.validated()

    def test_block_method_runs(self, tmp_path):
        truth = np.zeros((4, 4))
        truth[:2, :2] = DENSE2
        truth[2:, 2:] = DENSE2
        config = ExperimentConfig(
            "blocks", truth, "block", (20_000,), (0,), blocks=((0, 1), (2, 3)),
        )
        result = run_experiment(config)
        assert result.rows[0].distance < 0.1
        write_results([result], tmp_path / "out")
        assert (tmp_path / "out" / "runs.csv").exists()
