"""End-to-end CLI flows: subcommands, file schemas, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppmle
from dppmle.cli import main
from dppmle.errors import ConfigError, EigenvalueOutOfRange, NotSymmetric
from dppmle.experiments import (
    ExperimentConfig,
    config_from_dict,
    estimate,
    preset_configs,
    run_experiment,
    write_results,
)
from dppmle.kernels import kernel_from_text, save_kernel, validate_kernel
from dppmle.sampling import SampleBatch, load_batch, sample_batch, save_batch

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

    def test_degenerate_rows_keep_eight_fields(self, tmp_path):
        # two draws leave cells empty; the status message holds commas
        out = tmp_path / "runs"
        code = main([
            "experiment", "--kernel", "1 1; 1 2", "--method", "closed2x2",
            "--n", "2", "--seed", "0", "1", "2", "3", "--out", str(out),
        ])
        assert code == 0
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 8 for row in rows)
        assert any(row[5].startswith("degenerate:") and "," in row[5] for row in rows[1:])

    def test_kernel_id_with_comma_is_quoted(self, tmp_path):
        out = tmp_path / "runs"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kernel_id": "a,b", "kernel": [[1.0, 1.0], [1.0, 2.0]],
            "method": "closed2x2", "sample_sizes": [500], "seeds": [0, 1],
        }))
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ["a,b", "a,b"]
        assert all(len(row) == 8 for row in rows)

    def test_closed_form_on_a_wide_kernel(self, tmp_path):
        # at seed 5 the estimate has a c near 1e8, where a c - b^2 rounds below -1e-12
        code = main([
            "experiment", "--kernel", "10000 100; 100 1", "--method", "closed2x2",
            "--n", "100000", "--seed", "5", "--out", str(tmp_path / "runs"),
        ])
        assert code == 0
        with (tmp_path / "runs" / "runs.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][5] == "interior"

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


@pytest.mark.parametrize("argv", [
    ["sample", "--kernel", "1 1; 1 2", "--n", "50", "--seed", "3"],
    ["berry-esseen", "--sizes", "100", "400", "--reps", "400", "--seed", "1"],
], ids=["sample", "berry-esseen"])
def test_stdout_holds_the_out_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


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
        ["experiment", "--config", "{not_object}", "--kernel", "1 0; 0 1", "--out", "{out}"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--iters", "-1"],
        ["estimate", "--batch", "{batch}", "--method", "newton", "--iters", "-1"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--eta", "0"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--eta", "-0.5"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--l0", "1 0 0; 0 1 0; 0 0 1"],
        ["estimate", "--batch", "{batch}", "--method", "moments", "--kernel", "1 0 0; 0 1 0; 0 0 1"],
        ["estimate", "--batch", "{no_metadata}", "--method", "moments"],
        ["estimate", "--batch", "{items_mismatch}", "--method", "moments"],
        ["sample", "--kernel", "1 1; 1 2", "--n", "0"],
        ["estimate", "--batch", "{batch3}", "--method", "closed2x2"],
        ["berry-esseen", "--reps", "0"],
        ["berry-esseen", "--sizes", "0"],
        ["berry-esseen", "--sizes", "400", "100"],
        ["berry-esseen", "--a", "0"],
        ["berry-esseen", "--b", "-1"],
        ["berry-esseen", "--c", "nan"],
        ["sample", "--kernel", "1 1; 1 2", "--n", "5", "--seed", "-1"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--seed", "-1"],
        ["experiment", "--preset", "twobytwo", "--seed", "0", "-1", "--out", "{out}"],
        ["berry-esseen", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["sample", "--kernel", "1 1; 1 2", "--n", "5", "--seed", str(2**128)],
        ["experiment", "--config", "{negative_seed}", "--out", "{out}"],
        ["estimate", "--batch", "{batch}", "--method", "block", "--blocks", "[[0,1],[2,3]]"],
        ["estimate", "--batch", "{batch64}", "--method", "moments"],
        ["estimate", "--batch", "{batch}", "--method", "sgd", "--eta", "inf"],
        ["sample", "--kernel", "nan", "--n", "3"],
        ["sample", "--kernel", "{inf_kernel}", "--n", "3"],
        ["experiment", "--config", "{nan_kernel}", "--out", "{out}"],
        ["estimate", "--batch", "{huge_mask}", "--method", "moments"],
        ["sample", "--kernel", "1 2; 0 1", "--n", "3"],
        ["sample", "--kernel", "1 2; 2 1", "--n", "3"],
        ["experiment", "--config", "{output_dir_number}"],
        ["experiment", "--config", "{kernel_id_number}", "--out", "{out}"],
        ["experiment", "--config", "{kernel_file_number}", "--out", "{out}"],
        ["experiment", "--config", "{nan_initial}", "--out", "{out}"],
        ["experiment", "--preset", "twobytwo", "--config", "{valid_config}", "--out", "{out}"],
        ["experiment", "--preset", "twobytwo", "--kernel", "1 0; 0 1", "--out", "{out}"],
        ["experiment", "--preset", "twobytwo", "--method", "sgd", "--out", "{out}"],
        ["experiment", "--preset", "twobytwo", "--n", "5", "--out", "{out}"],
        ["experiment", "--preset", "table1", "--iters", "10", "--out", "{out}"],
        ["experiment", "--preset", "table1", "--eta", "0.2", "--out", "{out}"],
        ["sample", "--kernel", "", "--n", "3"],
        ["estimate", "--batch", "{negative_seed_batch}", "--method", "moments"],
        ["estimate", "--batch", "{unknown_sampler_batch}", "--method", "moments"],
        ["estimate", "--batch", "{misnumbered_batch}", "--method", "moments"],
        ["estimate", "--batch", "{pasted_batch}", "--method", "moments"],
        ["experiment", "--config", "{huge_int_kernel}", "--out", "{out}"],
        ["experiment", "--config", "{huge_int_eta}", "--out", "{out}"],
        ["estimate", "--batch", "{zero_items}", "--method", "newton"],
        ["estimate", "--batch", "{zero_items}", "--method", "sgd"],
        ["estimate", "--batch", "{zero_items}", "--method", "closed2x2"],
        ["estimate", "--batch", "{zero_items}", "--method", "block", "--blocks", "[]"],
        ["estimate", "--batch", "{zero_items}", "--method", "moments"],
    ], ids=["inline-kernel", "blocks-json", "blocks-triple", "blocks-repeat",
            "config-json", "config-kernel-entry", "batch-mask",
            "config-not-object", "sgd-iters", "newton-iters", "eta-zero", "eta-negative",
            "l0-size", "kernel-size", "batch-no-metadata", "batch-items",
            "sample-n-zero", "closed2x2-three-items", "reps-zero", "sizes-zero",
            "sizes-descending", "a-zero", "b-negative", "c-nan",
            "sample-seed-negative", "estimate-seed-negative", "experiment-seed-negative",
            "berry-esseen-seed-negative", "verify-seed-negative", "seed-2-pow-128",
            "config-seed-negative", "blocks-cover", "batch-n-ground-64", "eta-inf",
            "kernel-nan", "kernel-file-inf", "config-kernel-nan", "batch-mask-2-pow-70",
            "kernel-asymmetric", "kernel-not-psd", "config-output-dir-number",
            "config-kernel-id-number", "config-kernel-file-number", "config-initial-nan",
            "preset-config", "preset-kernel", "preset-method", "preset-n", "preset-iters",
            "preset-eta", "kernel-empty", "batch-seed-negative", "batch-sampler-unknown",
            "batch-index", "batch-pasted", "config-kernel-huge-int", "config-eta-huge-int",
            "zero-items-newton", "zero-items-sgd", "zero-items-closed2x2", "zero-items-block",
            "zero-items-moments"])
    def test_exit_code_and_one_line(self, argv, tmp_path, kernel_file, capsys):
        paths = {
            "batch": tmp_path / "batch.csv",
            "malformed": tmp_path / "malformed.json",
            "non_numeric": tmp_path / "non_numeric.json",
            "out": tmp_path / "out",
            "bad_batch": tmp_path / "bad_batch.csv",
            "not_object": tmp_path / "not_object.json",
            "no_metadata": tmp_path / "no_metadata.csv",
            "items_mismatch": tmp_path / "items_mismatch.csv",
            "batch3": tmp_path / "batch3.csv",
            "negative_seed": tmp_path / "negative_seed.json",
            "batch64": tmp_path / "batch64.csv",
            "inf_kernel": tmp_path / "inf_kernel.txt",
            "nan_kernel": tmp_path / "nan_kernel.json",
            "huge_mask": tmp_path / "huge_mask.csv",
            "output_dir_number": tmp_path / "output_dir_number.json",
            "kernel_id_number": tmp_path / "kernel_id_number.json",
            "kernel_file_number": tmp_path / "kernel_file_number.json",
            "nan_initial": tmp_path / "nan_initial.json",
            "valid_config": tmp_path / "valid_config.json",
            "negative_seed_batch": tmp_path / "negative_seed_batch.csv",
            "unknown_sampler_batch": tmp_path / "unknown_sampler_batch.csv",
            "misnumbered_batch": tmp_path / "misnumbered_batch.csv",
            "pasted_batch": tmp_path / "pasted_batch.csv",
            "huge_int_kernel": tmp_path / "huge_int_kernel.json",
            "huge_int_eta": tmp_path / "huge_int_eta.json",
            "zero_items": tmp_path / "zero_items.csv",
        }
        main(["sample", "--kernel", str(kernel_file), "--n", "100", "--out", str(paths["batch"])])
        paths["malformed"].write_text('{"kernel": [[1, 0], [0')
        paths["non_numeric"].write_text(json.dumps({"kernel": [["x", 0], [0, 1]], "sample_sizes": [10]}))
        paths["bad_batch"].write_text("# n_ground=2\nindex,mask,items\n0,x,\n")
        paths["not_object"].write_text("[1, 2]")
        paths["no_metadata"].write_text("index,mask,items\n0,1,0\n")
        paths["items_mismatch"].write_text("# n_ground=2\nindex,mask,items\n0,3,0\n")
        paths["batch3"].write_text("# n_ground=3\nindex,mask,items\n0,1,0\n1,6,1;2\n")
        paths["batch64"].write_text("# n_ground=64\nindex,mask,items\n0,1,0\n")
        paths["inf_kernel"].write_text("2\n1 0 0 inf\n")
        paths["nan_kernel"].write_text(json.dumps(
            {"kernel": [[float("nan"), 0], [0, 1]], "method": "newton", "sample_sizes": [10]}))
        paths["nan_initial"].write_text(json.dumps({"kernel": [[1, 0], [0, 1]], "method": "newton",
                                                    "sample_sizes": [10], "initial": [[float("nan"), 0], [0, 1]]}))
        paths["valid_config"].write_text(json.dumps(
            {"kernel": [[1, 0], [0, 1]], "method": "moments", "sample_sizes": [10]}))
        paths["negative_seed_batch"].write_text("# n_ground=2 seed=-5 sampler=spectral\nindex,mask,items\n0,1,0\n")
        paths["unknown_sampler_batch"].write_text("# n_ground=2 seed=0 sampler=bogus\nindex,mask,items\n0,1,0\n")
        paths["huge_mask"].write_text(f"# n_ground=2\nindex,mask,items\n0,{2**70},70\n")
        paths["misnumbered_batch"].write_text("# n_ground=2\nindex,mask,items\n7,1,0\n")
        paths["pasted_batch"].write_text(paths["batch"].read_text() * 2)
        paths["zero_items"].write_text("# n_ground=0\nindex,mask,items\n0,0,\n")
        # JSON integers beyond the float range
        paths["huge_int_kernel"].write_text(json.dumps(
            {"kernel": [[10**400, 0], [0, 1]], "method": "moments", "sample_sizes": [10]}))
        paths["huge_int_eta"].write_text(json.dumps(
            {"kernel": [[1, 0], [0, 1]], "method": "sgd", "sample_sizes": [10], "eta": 10**400}))
        paths["negative_seed"].write_text(json.dumps(
            {"kernel": [[1, 0], [0, 1]], "method": "moments", "sample_sizes": [10], "seeds": [-1]}))
        for key, extra in (("output_dir_number", {"output_dir": 5}), ("kernel_id_number", {"kernel_id": 5})):
            paths[key].write_text(json.dumps(
                {"kernel": [[1, 0], [0, 1]], "method": "moments", "sample_sizes": [10], **extra}))
        # an int kernel_file would be opened as a file descriptor; this one is not open
        paths["kernel_file_number"].write_text(json.dumps(
            {"kernel_file": 1 << 20, "method": "moments", "sample_sizes": [10]}))
        capsys.readouterr()
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["estimate", "--batch", "{missing}/batch.csv"],
        ["sample", "--kernel", "1 1; 1 2", "--n", "5", "--out", "{missing}/batch.csv"],
    ], ids=["estimate-missing-batch", "sample-out-missing-dir"])
    def test_io_error_exit_code_and_one_line(self, argv, tmp_path, capsys):
        code = main([arg.format(missing=tmp_path / "missing") for arg in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("io error: ") and err.count("\n") == 1

    def test_ground_set_beyond_int64_masks(self, tmp_path, capsys):
        # draws are int64 bit masks: 63 items fit, 64 give one error line and exit 1
        for n, expected in ((63, 0), (64, 1)):
            path = tmp_path / f"kernel{n}.txt"
            save_kernel(validate_kernel(np.eye(n), "ensemble"), path)
            code = main(["sample", "--kernel", str(path), "--n", "5", "--out", str(tmp_path / "batch.csv")])
            err = capsys.readouterr().err
            assert code == expected
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a sample size too large to allocate ends in numpy's MemoryError;
        # the stub raises it without allocating anything
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("dppmle.experiments.sample_batch", out_of_memory)
        code = main(["experiment", "--kernel", "1 1; 1 2", "--method", "closed2x2",
                     "--n", "1000000000000", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["moments", "newton"])
    def test_dense_table_beyond_limit(self, method, tmp_path, capsys):
        # moments and newton read a dense 2^n table, which stops at 20 items
        path = tmp_path / "batch21.csv"
        path.write_text("# n_ground=21\nindex,mask,items\n0,1,0\n1,0,\n")
        code = main(["estimate", "--batch", str(path), "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: dense table over 2^21 subsets") and err.count("\n") == 1

    def test_block_reads_masks_beyond_dense_limit(self, tmp_path, capsys):
        # block counts each pair's four cells from the masks, so 22 items are fine
        first = sum(1 << (2 * k) for k in range(11))
        masks = np.array([0, first, first << 1, first | first << 1])
        path = tmp_path / "batch22.csv"
        save_batch(SampleBatch(22, masks, 0, "enumeration"), path)
        blocks = json.dumps([[2 * k, 2 * k + 1] for k in range(11)])
        code = main(["estimate", "--batch", str(path), "--method", "block", "--blocks", blocks])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "22" and json.loads(out[-1])["status"] == "ok"

    def test_verify_largest_seed(self, capsys):
        # the checks run at seed + k, which must wrap into [0, 2**128)
        code = main(["verify", "--seed", str(2**128 - 1)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 6 and all(ln.startswith("[PASS]") for ln in lines)


class TestMethodRules:
    """``estimate`` and ``experiment --config`` share one home for the method rules."""

    @pytest.mark.parametrize("n, method, flags, fields", [
        (2, "sgd", ["--iters", "0"], {"iterations": 0}),
        (2, "sgd", ["--eta", "-1"], {"eta": -1.0}),
        (3, "closed2x2", [], {}),
        (2, "block", ["--blocks", "[[0,1],[2,3]]"], {"blocks": [[0, 1], [2, 3]]}),
    ], ids=["iterations", "eta", "closed2x2-items", "block-cover"])
    def test_same_error_line(self, n, method, flags, fields, tmp_path, capsys):
        batch, config = tmp_path / "batch.csv", tmp_path / "config.json"
        save_batch(sample_batch(validate_kernel(np.eye(n), "ensemble"), 50, 0, "enumeration"), batch)
        config.write_text(json.dumps({"kernel": np.eye(n).tolist(), "method": method,
                                      "sample_sizes": [50], **fields}))
        errors = []
        for argv in (["estimate", "--batch", str(batch), "--method", method, *flags],
                     ["experiment", "--config", str(config), "--out", str(tmp_path / "out")]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: ") and err.count("\n") == 1
            errors.append(err)
        assert errors[0] == errors[1]


#: Dict-shaped JSON: what ``json.loads`` can return, integers beyond the float range included.
_HUGE_INTEGERS = st.integers(-(10**400), 10**400)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _HUGE_INTEGERS, st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=12,
)
_CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["kernel_file"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Kernel files for the config fuzz test: one valid, one asymmetric, one garbled."""
    path = tmp_path_factory.mktemp("fuzz")
    save_kernel(validate_kernel(DENSE2, "ensemble"), path / "kernel.txt")
    (path / "asymmetric.txt").write_text("2\n1 2\n0 1\n")
    (path / "garbled.txt").write_text("2\n1 x\n")
    return path


class TestConfigValidation:
    @pytest.mark.parametrize("field", [
        {"iterations": 2.5},
        {"sample_sizes": (10.5,)},
        {"seeds": (True,)},
    ], ids=["iterations-float", "sample-sizes-float", "seeds-bool"])
    def test_direct_construction_checks_types(self, field):
        fields = {"sample_sizes": (100,), **field}
        with pytest.raises(ConfigError, match="is not an integer"):
            ExperimentConfig("x", np.eye(2), "sgd", **fields)

    def test_method_kernel_shape(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", np.eye(3), "closed2x2", (100,), (0,))

    def test_initial_kernel_shape(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", np.eye(2), "sgd", (100,), (0,), initial=np.eye(3))

    @pytest.mark.parametrize("initial", [
        [["x", 0], [0, 1]],
        [[float("nan"), 0], [0, 1]],
        [[1, 0.5], [0, 1]],
        [[1, 2], [2, 1]],
    ], ids=["string", "nan", "asymmetric", "not-psd"])
    def test_initial_is_a_valid_kernel(self, initial):
        with pytest.raises(ConfigError, match="invalid initial"):
            ExperimentConfig("x", np.eye(2), "sgd", (100,), (0,), initial=initial)

    @pytest.mark.parametrize("blocks", [((0, 1, 2),), (0, 1), ((0,), (1,)), 5],
                             ids=["triple", "flat", "singletons", "number"])
    def test_malformed_blocks(self, blocks):
        with pytest.raises(ConfigError, match="blocks"):
            ExperimentConfig("x", np.eye(4), "block", (100,), (0,), blocks=blocks)

    def test_block_needs_structure(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", np.eye(4), "block", (100,), (0,))

    @pytest.mark.parametrize("seeds", [(-1,), (0, 2**128)], ids=["negative", "2-pow-128"])
    def test_seed_range(self, seeds):
        with pytest.raises(ConfigError, match="seeds must be in"):
            ExperimentConfig("x", np.eye(2), "moments", (100,), seeds)
        with pytest.raises(ConfigError, match="seeds must be in"):
            config_from_dict({"kernel": [[1, 0], [0, 1]], "method": "moments",
                              "sample_sizes": [100], "seeds": list(seeds)})

    @pytest.mark.parametrize("kernel_id", [5, "a\rb"], ids=["number", "carriage-return"])
    def test_kernel_id_printable_string(self, kernel_id):
        # csv.writer does not quote a lone carriage return, which would split the row.
        with pytest.raises(ConfigError, match="kernel_id"):
            ExperimentConfig(kernel_id, np.eye(2), "moments", (100,), (0,))

    def test_largest_seed_runs(self):
        config = ExperimentConfig("x", np.eye(2), "moments", (100,), (2**128 - 1,))
        assert len(run_experiment(config).rows) == 1

    @pytest.mark.parametrize("field", [
        {"seeds": [1.5]},
        {"seeds": [True]},
        {"sample_sizes": [10.7]},
        {"iterations": 2.9},
        {"method": "block", "blocks": [[0, 1.0]]},
    ], ids=["seeds-float", "seeds-bool", "sample-sizes-float", "iterations-float", "blocks-float"])
    def test_non_integral_values_rejected(self, field, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel": [[1, 0], [0, 1]], "method": "sgd",
                                      "sample_sizes": [10], **field}))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("eta", [True, "0.1", float("nan"), "nan", float("inf")],
                             ids=["bool", "string", "nan", "nan-string", "inf"])
    def test_eta_must_be_positive_real(self, eta, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel": [[1, 0], [0, 1]], "method": "sgd",
                                      "sample_sizes": [10], "iterations": 10, "eta": eta}))
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_estimate_rejects_unknown_method(self):
        batch = sample_batch(validate_kernel(DENSE2, "ensemble"), 100, 0, "enumeration")
        with pytest.raises(ValueError, match="unknown method"):
            estimate("nwton", batch)

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(_CONFIG_KEYS),
        st.one_of(
            _JSON,
            st.sampled_from(["newton", "sgd", "closed2x2", "block", "moments", "enumeration", "spectral"]),
            st.lists(st.lists(st.one_of(st.floats(-3, 3), st.integers(-3, 3), _HUGE_INTEGERS),
                              min_size=1, max_size=3), min_size=1, max_size=3),
            st.lists(st.integers(-2, 10**6), max_size=3),
            st.sampled_from(["kernel.txt", "asymmetric.txt", "garbled.txt", "missing.txt", "."]),
        ),
        max_size=7,
    ))
    def test_json_values_raise_only_one_line_errors(self, fuzz_dir, raw):
        # The CLI turns these into one "config error:" or "io error:" line.
        # Names stay inside the fixture's directory, so no other file is read.
        if isinstance(raw.get("kernel_file"), str):
            raw["kernel_file"] = str(fuzz_dir / raw["kernel_file"].replace("/", "_"))
        try:
            config_from_dict(raw)
        except (ConfigError, TypeError, ValueError, NotSymmetric, EigenvalueOutOfRange):
            pass
        except OSError:
            assert "kernel_file" in raw

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kernel": [[1]], "bogus": 1})

    def test_presets_validate(self):
        # construction validates; rebuilding from the normalized fields must pass too
        for config in preset_configs("table1") + preset_configs("twobytwo"):
            ExperimentConfig(**vars(config))

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


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # scipy costs start-up time and memory in every CLI call; only SGD (scipy.linalg),
    # berry-esseen and verify (scipy.special) load it, so importing the CLI, sampling
    # and Newton must not.
    src = str(Path(dppmle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    batch = str(tmp_path / "batch.csv")
    script = f"""
import sys
import dppmle.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

after_import = scipy_modules()
assert dppmle.cli.main(["sample", "--kernel", "1 1; 1 2", "--n", "200", "--sampler", "spectral", "--out", {batch!r}]) == 0
assert dppmle.cli.main(["estimate", "--batch", {batch!r}, "--method", "newton"]) == 0
print(after_import, scipy_modules(), file=sys.stderr)
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stderr.splitlines()[-1] == "[] []"
