import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survnet
from survnet import cli
from survnet.curves import SurvivalCurve
from survnet.dataset import SurvivalDataset, write_csv
from survnet.grid import TimeGrid
from survnet.sim import SimConfig, generate_dataset, write_truth_csv


def run_cli(*argv):
    return cli.main(list(argv))


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def simulate_files(tmp_path, n=300, seed=1, censor="default"):
    out = tmp_path / f"data_{n}_{seed}.csv"
    truth = tmp_path / f"truth_{n}_{seed}.csv"
    argv = [
        "simulate", "--n", str(n), "--seed", str(seed),
        "--out", str(out), "--truth", str(truth),
    ]
    if censor != "default":
        argv += ["--censor-hazard", str(censor)]
    assert run_cli(*argv) == 0
    return out, truth


class TestSimulate:
    def test_writes_files_and_reports_censoring(self, tmp_path, capsys):
        out, truth = simulate_files(tmp_path, n=4000, seed=2)
        assert out.exists() and truth.exists()
        summary = capsys.readouterr().out
        frac = float(summary.split("censored fraction ")[1].split(")")[0])
        assert 0.30 <= frac <= 0.44

    def test_zero_censor_hazard(self, tmp_path, capsys):
        simulate_files(tmp_path, n=500, seed=3, censor=0.0)
        # only end-of-grid censoring remains
        from survnet.dataset import load_csv

        data = load_csv(tmp_path / "data_500_3.csv")
        censored = data.events == 0
        np.testing.assert_array_equal(data.durations[censored], 100.0)

    def test_byte_identical_reruns(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a_out, a_truth = simulate_files(tmp_path / "a", n=200, seed=4)
        b_out, b_truth = simulate_files(tmp_path / "b", n=200, seed=4)
        assert a_out.read_bytes() == b_out.read_bytes()
        assert a_truth.read_bytes() == b_truth.read_bytes()

    def test_missing_out_is_validation_error(self):
        assert run_cli("simulate", "--n", "10") == 1

    def test_oversized_n_exits_one(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert run_cli("simulate", "--n", "1000000000000000000000", "--out", str(out)) == 1
        assert "too large" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli.sim_, "generate_dataset", exhausted)
        assert run_cli("simulate", "--n", "10", "--out", str(tmp_path / "a.csv")) == 1
        assert "out of memory" in assert_one_line_error(capsys)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small simulated train/val/test trio on disk."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {}
    for name, n, seed in (("train", 500, 11), ("val", 300, 12), ("test", 400, 13)):
        result = generate_dataset(SimConfig(n=n, seed=seed))
        data_path = root / f"{name}.csv"
        write_csv(result.data, data_path)
        truth_path = root / f"{name}_truth.csv"
        write_truth_csv(truth_path, result)
        paths[name] = data_path
        paths[f"{name}_truth"] = truth_path
    paths["root"] = root
    return paths


def fit_args(paths, out, method="logistic-hazard", extra=()):
    return [
        "fit", "--method", method,
        "--train", str(paths["train"]), "--val", str(paths["val"]),
        "--m", "5", "--width", "16", "--depth", "1",
        "--max-epochs", "8", "--patience", "8", "--seed", "5",
        "--out", str(out), *extra,
    ]


class TestFit:
    def test_grid_size_in_model_file(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        argv = fit_args(pipeline, model)
        argv[argv.index("--m") + 1] = "25"
        assert run_cli(*argv) == 0
        doc = json.loads(model.read_text())
        assert len(doc["grid"]["cuts"]) == 26
        assert doc["format_version"] == "1"
        assert doc["net"]["widths"][-1] == 25

    def test_deterministic_model_files(self, pipeline, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run_cli(*fit_args(pipeline, m1, method="pc-hazard")) == 0
        assert run_cli(*fit_args(pipeline, m2, method="pc-hazard")) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_zero_events_surfaces_grid_error(self, tmp_path):
        data = SurvivalDataset([1.0, 2.0, 3.0], [0, 0, 0], np.zeros((3, 2)))
        path = tmp_path / "noevents.csv"
        write_csv(data, path)
        model = tmp_path / "model.json"
        code = run_cli(
            "fit", "--train", str(path), "--val", str(path),
            "--m", "3", "--out", str(model),
        )
        assert code == 1

    def test_diverged_fit_warns_and_still_succeeds(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run_cli(*fit_args(pipeline, model)) == 0
        assert capsys.readouterr().err == ""
        argv = fit_args(pipeline, model, extra=("--lr", "1e6", "--max-epochs", "3"))
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("fitted logistic-hazard") and model.exists()
        assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
        assert "untrained network" in captured.err

    def test_training_log_is_json_lines(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        log = tmp_path / "log.jsonl"
        assert run_cli(*fit_args(pipeline, model, extra=("--log", str(log)))) == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 8
        assert {"epoch", "train_loss", "val_loss", "lr"} <= set(entries[0])

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        cfg = {"method": "pmf", "m": 4, "width": 8, "depth": 1,
               "max_epochs": 3, "patience": 3, "seed": 5,
               "train": str(pipeline["train"]), "val": str(pipeline["val"])}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        model = tmp_path / "model.json"
        assert run_cli("fit", "--config", str(cfg_path), "--m", "6",
                       "--out", str(model)) == 0
        doc = json.loads(model.read_text())
        assert doc["method"] == "pmf"
        assert len(doc["grid"]["cuts"]) == 7  # flag beats config

    @pytest.mark.parametrize("cfg", [
        {"m": "abc"}, {"m": 2.5}, {"lr": True}, {"train": 3}, [1, 2], {"lr": 10**400},
    ], ids=["str-for-int", "float-for-int", "bool-for-float", "int-for-path", "not-object",
            "int-too-large-for-float"])
    def test_config_value_of_wrong_type_rejected(self, pipeline, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(
            "fit", "--config", str(cfg_path), "--train", str(pipeline["train"]),
            "--val", str(pipeline["val"]), "--out", str(tmp_path / "model.json"),
        ) == 1
        assert_one_line_error(capsys)

    def test_unknown_config_key_rejected(self, pipeline, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"no_such_key": 1}))
        assert run_cli("fit", "--config", str(cfg_path), "--out", "x.json") == 1


class TestPredictAndEvaluate:
    @pytest.mark.parametrize("method", ["logistic-hazard", "pmf", "pc-hazard"])
    def test_full_pipeline_per_method(self, pipeline, tmp_path, method):
        model = tmp_path / f"{method}.json"
        assert run_cli(*fit_args(pipeline, model, method=method)) == 0
        curves_csv = tmp_path / f"{method}_curves.csv"
        assert run_cli(
            "predict", "--model", str(model), "--data", str(pipeline["test"]),
            "--num-times", "12", "--out", str(curves_csv),
        ) == 0
        header = curves_csv.read_text().splitlines()[0]
        assert header.startswith("t,s0")
        report_path = tmp_path / f"{method}_report.json"
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--truth", str(pipeline["test_truth"]), "--out", str(report_path),
        ) == 0
        reports = json.loads(report_path.read_text())
        by_name = {r["metric"]: r for r in reports}
        assert set(by_name) == {"td_concordance", "integrated_brier_score", "mse_vs_truth"}
        assert all(np.isfinite(r["value"]) for r in reports)
        assert by_name["td_concordance"]["n"] == 400

    @pytest.mark.parametrize("num_times", ["0", "-3"])
    def test_num_times_below_one_exits_one(self, pipeline, tmp_path, capsys, num_times):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        curves_csv = tmp_path / "curves.csv"
        capsys.readouterr()
        assert run_cli(
            "predict", "--model", str(model), "--data", str(pipeline["test"]),
            "--num-times", num_times, "--out", str(curves_csv),
        ) == 1
        assert_one_line_error(capsys)
        assert not curves_csv.exists()

    @pytest.mark.parametrize("times", ["nan", "1,nan", "inf", "0.5,-inf"])
    def test_non_finite_times_exit_one(self, pipeline, tmp_path, capsys, times):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        curves_csv = tmp_path / "curves.csv"
        capsys.readouterr()
        assert run_cli(
            "predict", "--model", str(model), "--data", str(pipeline["test"]),
            f"--times={times}", "--out", str(curves_csv),
        ) == 1
        assert_one_line_error(capsys)
        assert not curves_csv.exists()

    @pytest.mark.parametrize("ibs_points", ["-5", "0", "1"])
    def test_ibs_points_below_two_exits_one(self, pipeline, tmp_path, capsys, ibs_points):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--ibs-points", ibs_points, "--out", str(report_path),
        ) == 1
        assert_one_line_error(capsys)
        assert not report_path.exists()

    def test_interpolation_flags_change_evaluation_only(self, pipeline, tmp_path):
        model = tmp_path / "interp.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        before = model.read_bytes()
        outs = {}
        for interp in ("none", "chi", "cdi"):
            report_path = tmp_path / f"report_{interp}.json"
            assert run_cli(
                "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
                "--interp", interp, "--out", str(report_path),
            ) == 0
            outs[interp] = json.loads(report_path.read_text())
        assert model.read_bytes() == before
        values = {k: v[0]["value"] for k, v in outs.items()}
        assert len(set(values.values())) > 1  # interpolation moved the metrics

    def test_end_to_end_reports_reproducible(self, pipeline, tmp_path):
        reports = []
        for run in range(2):
            model = tmp_path / f"rep{run}.json"
            assert run_cli(*fit_args(pipeline, model)) == 0
            report_path = tmp_path / f"rep{run}_report.json"
            assert run_cli(
                "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
                "--out", str(report_path),
            ) == 0
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_truth_rows_rejected(self, pipeline, tmp_path):
        model = tmp_path / "badtruth.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--truth", str(pipeline["train_truth"]),
        ) == 1

    @pytest.mark.parametrize("content", [
        b"a,b,c\n1,2,3\n",
        b"survnet-truth-latent,n_steps=1000,t_max=100.0\n0.5,nan,0,0,0,0,0,0,0\n",
        b"\xff\xfe\x00binary",
        None,
        # the layout before 0.2.0: a header of times, then one survival curve per row
        b"0.1,0.2,0.3\n0.9,0.8,0.7\n",
    ], ids=["garbled", "non-finite-latent", "not-utf8", "missing", "old-layout"])
    def test_bad_truth_file_exits_one(self, pipeline, tmp_path, capsys, content):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        truth = tmp_path / "truth.csv"
        if content is not None:
            truth.write_bytes(content)
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--truth", str(truth),
        ) == 1
        assert_one_line_error(capsys)


class TestEvaluateOracleInjection:
    def test_perfect_curves_score_perfectly(self):
        # separable toy set: every individual has its own drop time
        durations = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.ones(5, dtype=int)
        cuts = np.concatenate([[0.0], durations])
        values = (cuts[None, 1:] < durations[:, None]).astype(float)
        curve = SurvivalCurve(TimeGrid(cuts), values)
        reports = cli.evaluate_curves(curve, durations, events, ibs_points=20)
        by_name = {r["metric"]: r for r in reports}
        assert by_name["td_concordance"]["value"] == 1.0
        assert by_name["integrated_brier_score"]["value"] == pytest.approx(0.0, abs=1e-12)


class TestModelFile:
    def test_version_and_grid_consistency_checked(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        doc = json.loads(model.read_text())
        del doc["format_version"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run_cli("evaluate", "--model", str(broken),
                       "--data", str(pipeline["test"])) == 1
        doc2 = json.loads(model.read_text())
        doc2["grid"]["cuts"] = doc2["grid"]["cuts"][:-1]
        broken2 = tmp_path / "broken2.json"
        broken2.write_text(json.dumps(doc2))
        assert run_cli("evaluate", "--model", str(broken2),
                       "--data", str(pipeline["test"])) == 1

    DAMAGES = ("delete", "shorten", "nan", "inf")

    @pytest.fixture(scope="class")
    def model_text(self, pipeline, tmp_path_factory):
        model = tmp_path_factory.mktemp("model") / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        return model.read_text()

    @pytest.mark.parametrize("path", [("grid", "cuts"), ("net", "widths"),
                                      ("standardizer", "stds"), ("net", "weights"),
                                      ("net", "biases"), ("standardizer", "means")])
    # evaluate's ids carry no command name
    @pytest.mark.parametrize("command, damage", [
        *(pytest.param("evaluate", d, id=d) for d in DAMAGES),
        *(pytest.param("predict", d, id=f"predict-{d}") for d in DAMAGES),
    ])
    def test_damaged_nested_value_exits_one(
        self, pipeline, model_text, tmp_path, capsys, path, command, damage
    ):
        doc = json.loads(model_text)
        if damage == "delete":
            del doc[path[0]][path[1]]
        elif damage == "shorten":
            doc[path[0]][path[1]] = doc[path[0]][path[1]][:-1]
        else:
            # the last number: the last cut, the output width, the last weight...
            numbers = doc[path[0]][path[1]]
            while isinstance(numbers[-1], list):
                numbers = numbers[-1]
            numbers[-1] = float(damage)
        broken = tmp_path / "broken.json"
        # written as the bare NaN and Infinity that json.load accepts
        broken.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "curves.csv")] if command == "predict" else []
        capsys.readouterr()
        assert run_cli(command, "--model", str(broken),
                       "--data", str(pipeline["test"]), *out) == 1
        assert_one_line_error(capsys)

    def test_unknown_flag_exits_one(self):
        assert run_cli("fit", "--frobnicate") == 1


class TestOptions:
    @pytest.mark.parametrize("command, defaults", [
        ("simulate", cli.SIMULATE_DEFAULTS), ("fit", cli.FIT_DEFAULTS),
        ("predict", cli.PREDICT_DEFAULTS), ("evaluate", cli.EVALUATE_DEFAULTS),
    ])
    def test_every_default_key_is_a_flag_and_a_config_key(self, tmp_path, command, defaults):
        values = {key: "x" if default is None else default for key, default in defaults.items()}
        argv = [command]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        args = cli.build_parser().parse_args(argv)
        flags = {key: getattr(args, key) for key in defaults}
        assert flags == values
        assert all(type(flags[key]) is type(values[key]) for key in values)
        # a float option given as a JSON integer still comes back as a float
        cfg = {key: int(v) if isinstance(v, float) and v.is_integer() else v
               for key, v in values.items()}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        args = cli.build_parser().parse_args([command, "--config", str(cfg_path)])
        merged = cli._merge(args, defaults)
        assert merged == values
        assert all(type(merged[key]) is type(values[key]) for key in values)

    @pytest.mark.parametrize("command, key, value", [
        ("fit", "grid_scheme", "foo"), ("fit", "method", "mtlr"),
        ("predict", "interp", "cubic"), ("evaluate", "interp", "cubic"),
    ])
    def test_config_value_outside_choices_exits_one(self, tmp_path, capsys, command, key, value):
        missing = str(tmp_path / "missing.csv")
        inputs = {"fit": ["--train", missing, "--val", missing],
                  "predict": ["--model", missing, "--data", missing],
                  "evaluate": ["--model", missing, "--data", missing]}[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run_cli(command, "--config", str(cfg_path), *inputs,
                       "--out", str(tmp_path / "out")) == 1
        assert f"{key!r} must be one of" in assert_one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "seed", -1), ("simulate", "design_seed", -2), ("fit", "seed", -3),
        ("fit", "depth", -1), ("fit", "weight_decay", float("nan")),
        ("fit", "lr", float("nan")), ("fit", "lr", float("inf")),
    ])
    def test_negative_seed_or_depth_or_non_finite_rate_exits_one(
        self, pipeline, tmp_path, capsys, via, command, key, value
    ):
        out = tmp_path / "out"
        argv = {"simulate": ["simulate", "--n", "10"],
                "fit": ["fit", "--train", str(pipeline["train"]), "--val", str(pipeline["val"]),
                        "--m", "5", "--max-epochs", "1"]}[command] + ["--out", str(out)]
        if via == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg_path)]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert_one_line_error(capsys)
        assert not out.exists()


# The directory holding the imported survnet package, for child processes.
PACKAGE_ROOT = str(Path(survnet.__file__).resolve().parent.parent)

# Largest weight difference accepted between fits at one and at two BLAS
# threads. OpenBLAS splits a threaded product into output blocks, each summed
# in the single-threaded order, so the difference measured on a 2-CPU host
# with OpenBLAS 0.3.31 is 0, at this test's sizes and at n = 20,000 with the
# CLI defaults; another build measured about 6e-17. The bound leaves room for
# that rounding, and a real fault moves weights by far more.
CROSS_THREAD_ATOL = 1e-12


def run_cli_process(threads, *argv):
    """Run ``python -m survnet.cli`` in a child pinned to a BLAS thread count."""
    path = [PACKAGE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "survnet.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def subprocess_pipeline(workdir, threads, data_from=None):
    """simulate -> fit -> predict -> evaluate as child processes.

    The fit uses the default network shape, so its products are large enough
    for OpenBLAS to use several threads. With ``data_from`` the simulated
    files of an earlier run are reused. Returns {file name: bytes}.
    """
    workdir.mkdir()
    data = data_from or workdir
    if data_from is None:
        for name, n, seed in (("train", 600, 41), ("val", 200, 42), ("test", 300, 43)):
            run_cli_process(threads, "simulate", "--n", str(n), "--seed", str(seed),
                            "--out", str(data / f"{name}.csv"),
                            "--truth", str(data / f"{name}_truth.csv"))
    for method in cli.METHODS:
        model = workdir / f"model_{method}.json"
        run_cli_process(threads, "fit", "--method", method,
                        "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                        "--m", "10", "--max-epochs", "4", "--seed", "7", "--out", str(model))
        run_cli_process(threads, "predict", "--model", str(model),
                        "--data", str(data / "test.csv"),
                        "--out", str(workdir / f"curves_{method}.csv"))
        run_cli_process(threads, "evaluate", "--model", str(model),
                        "--data", str(data / "test.csv"),
                        "--truth", str(data / "test_truth.csv"),
                        "--out", str(workdir / f"report_{method}.json"))
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    return root / "first", subprocess_pipeline(root / "first", threads=1)


class TestSubprocessDeterminism:
    def test_same_bytes_at_one_blas_thread(self, pinned_run, tmp_path):
        _, first = pinned_run
        second = subprocess_pipeline(tmp_path / "second", threads=1)
        assert len(first) == 3 * 2 + 3 * 3
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_weights_close_across_thread_counts(self, pinned_run, tmp_path):
        first_dir, first = pinned_run
        second = subprocess_pipeline(tmp_path / "two", threads=2, data_from=first_dir)
        for method in cli.METHODS:
            one = json.loads(first[f"model_{method}.json"])["net"]
            two = json.loads(second[f"model_{method}.json"])["net"]
            assert one["widths"] == two["widths"]
            for a, b in zip(one["weights"] + one["biases"], two["weights"] + two["biases"]):
                np.testing.assert_allclose(a, b, rtol=0, atol=CROSS_THREAD_ATOL)
