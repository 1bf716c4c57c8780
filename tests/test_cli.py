import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survnet
from survnet import cli
from survnet.curves import SurvivalCurve
from survnet.dataset import SurvivalDataset, load_csv, write_csv
from survnet.errors import ValidationError
from survnet.grid import TimeGrid
from survnet.net import init_mlp
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

    def test_empty_training_file_is_one_line(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run_cli("fit", "--train", str(empty), "--val", str(pipeline["val"]),
                       "--out", str(model)) == 1
        assert capsys.readouterr().err == (
            f"error: {empty}: empty file, a header row is required\n"
        )
        assert not model.exists()

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

    def test_non_finite_covariate_names_the_file(self, pipeline, tmp_path, capsys):
        lines = pipeline["val"].read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "nan"
        lines[3] = ",".join(cells)
        val, model = tmp_path / "val_nan.csv", tmp_path / "model.json"
        val.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(*fit_args({**pipeline, "val": val}, model)) == 1
        err = assert_one_line_error(capsys)
        assert f"{val}: row 3: non-finite value nan in column 'x2'" in err
        assert not model.exists()

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

    # and times that do not parse (an empty entry included) or do not increase
    @pytest.mark.parametrize("times", ["nan", "1,nan", "inf", "0.5,-inf", "a,b", "", "1,,2",
                                       "2,1"])
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

    def test_given_times_are_written(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model, method="pc-hazard")) == 0
        curves_csv = tmp_path / "curves.csv"
        assert run_cli(
            "predict", "--model", str(model), "--data", str(pipeline["test"]),
            "--times", "0,0.5,7.25,30,1e3", "--out", str(curves_csv),
        ) == 0
        method, time_grid, net, std = cli.load_model(model)
        covariates = std.apply(load_csv(pipeline["test"])).covariates
        times = np.array([0.0, 0.5, 7.25, 30.0, 1e3])
        expected = cli.predict_curves(method, net, time_grid, covariates).evaluate(times)
        table = np.loadtxt(curves_csv, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], times)
        assert np.array_equal(table[:, 1:], expected.T)

    def test_predict_curves_rejects_an_unknown_method(self):
        # load_model already rules such a method out for every command
        net = init_mlp([2, 3])
        with pytest.raises(ValidationError, match="^unknown method 'cox'$"):
            cli.predict_curves("cox", net, TimeGrid([0.0, 1.0, 2.0, 3.0]), np.zeros((1, 2)))

    def test_durations_at_a_single_point_exit_one(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        test = load_csv(pipeline["test"])
        events = np.zeros(test.n, dtype=int)
        events[: test.n // 2] = 1  # half events, half censorings, all at time 5
        tied = tmp_path / "tied.csv"
        write_csv(SurvivalDataset(np.full(test.n, 5.0), events, test.covariates), tied)
        capsys.readouterr()
        assert run_cli("evaluate", "--model", str(model), "--data", str(tied)) == 1
        assert capsys.readouterr().err == "error: observed times span a single point\n"

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

    def test_truth_for_another_n_is_one_line(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--truth", str(pipeline["train_truth"]),
        ) == 1
        assert capsys.readouterr().err == (
            f"error: {pipeline['train_truth']} against {pipeline['test']}: "
            "truth has 500 rows for 400 individuals\n"
        )

    def test_truth_for_another_n_fails_before_any_metric(self, pipeline, tmp_path, monkeypatch):
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model)) == 0

        def no_metric(*args, **kwargs):
            raise AssertionError("a metric was computed")

        monkeypatch.setattr(cli.metrics_, "td_concordance", no_metric)
        monkeypatch.setattr(cli.metrics_, "integrated_brier_score", no_metric)
        assert run_cli(
            "evaluate", "--model", str(model), "--data", str(pipeline["test"]),
            "--truth", str(pipeline["train_truth"]),
        ) == 1

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_data_of_another_width_names_data_and_model(self, pipeline, tmp_path, capsys,
                                                        command):
        model, narrow, out = tmp_path / "model.json", tmp_path / "narrow.csv", tmp_path / "out"
        assert run_cli(*fit_args(pipeline, model)) == 0
        rows = pipeline["test"].read_text().splitlines()
        narrow.write_text("".join(",".join(row.split(",")[:3]) + "\n" for row in rows))
        capsys.readouterr()
        assert run_cli(command, "--model", str(model), "--data", str(narrow),
                       "--out", str(out)) == 1
        p = len(rows[0].split(",")) - 2
        assert capsys.readouterr().err == (
            f"error: {narrow} against {model}: standardizer expects p={p}, data has p=1\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("version", ["99", 1])
    def test_other_format_version_exits_one(
        self, pipeline, model_text, tmp_path, capsys, command, version
    ):
        doc = json.loads(model_text)
        doc["format_version"] = version
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "curves.csv")] if command == "predict" else []
        capsys.readouterr()
        assert run_cli(command, "--model", str(broken),
                       "--data", str(pipeline["test"]), *out) == 1
        assert "format_version" in assert_one_line_error(capsys)
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("damage, message", [
        pytest.param(lambda doc: doc["net"]["weights"][0].pop(),
                     "weight array size disagrees with widths", id="short-weights"),
        pytest.param(lambda doc: doc["grid"]["cuts"].reverse(),
                     "the first cut point must be 0", id="reversed-cuts"),
        pytest.param(lambda doc: doc["net"]["biases"][0].pop(),
                     "layer 0: inconsistent parameter shapes", id="short-bias"),
        pytest.param(lambda doc: doc["net"].update(dropout=1.5),
                     "dropout rate must be in [0, 1)", id="dropout"),
        pytest.param(lambda doc: doc["standardizer"].update(means=[doc["standardizer"]["means"]]),
                     "standardizer means and stds must be 1-d of equal length", id="2d-means"),
    ])
    def test_rejected_parameters_name_the_file(
        self, pipeline, model_text, tmp_path, capsys, damage, message
    ):
        doc = json.loads(model_text)
        damage(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("evaluate", "--model", str(broken), "--data", str(pipeline["test"])) == 1
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"

    # worded as one line, without the repr of the Python exception behind it
    @pytest.mark.parametrize("damage, message", [
        pytest.param(lambda doc: doc["grid"]["cuts"].__setitem__(1, 10**400),
                     "model file holds a number beyond float range", id="huge-cut"),
        pytest.param(lambda doc: doc["grid"].pop("cuts"),
                     "model file is missing 'cuts'", id="no-cuts"),
        pytest.param(lambda doc: doc.update(grid=[]),
                     "malformed model file: list indices must be integers or slices, not str",
                     id="grid-list"),
        pytest.param(lambda doc: doc["net"]["weights"][0].__setitem__(0, "x"),
                     "malformed model file: could not convert string to float: 'x'",
                     id="string-weight"),
        # widths of 45, 16 and 5 for the two layers
        pytest.param(lambda doc: doc["net"]["widths"].extend([99, 7]),
                     "2 layers need 3 widths", id="extra-widths"),
        pytest.param(lambda doc: doc["net"]["widths"].__setitem__(1, 16.7),
                     "widths must be positive integers", id="fractional-width"),
        pytest.param(lambda doc: doc["net"]["widths"].__setitem__(1, float("inf")),
                     "widths must be positive integers", id="infinite-width"),
        pytest.param(lambda doc: doc["net"]["widths"].__setitem__(1, "1e400"),
                     "widths must be positive integers", id="1e400-width"),
        pytest.param(lambda doc: doc["net"]["widths"].__setitem__(1, True),
                     "widths must be positive integers", id="bool-width"),
        pytest.param(lambda doc: doc["net"]["widths"].__setitem__(1, 0),
                     "widths must be positive integers", id="zero-width"),
        # every missing key, top-level or nested, is worded alike
        *(pytest.param(lambda doc, key=key: doc.pop(key), f"model file is missing {key!r}",
                       id=f"no-{key}")
          for key in ("format_version", "method", "grid", "net", "standardizer")),
        pytest.param(lambda doc: doc["net"].pop("dropout"),
                     "model file is missing 'dropout'", id="no-dropout"),
        pytest.param(lambda doc: doc.update(method="cox"), "unknown method 'cox'", id="cox"),
        pytest.param(lambda doc: doc["grid"].update(cuts=[0]),
                     "a grid needs at least two cut points", id="one-cut"),
    ])
    def test_malformed_model_file_message(
        self, pipeline, model_text, tmp_path, capsys, damage, message
    ):
        doc = json.loads(model_text)
        damage(doc)
        broken = tmp_path / "broken.json"
        # json.dumps cannot write 1e400, which json reads as infinity; the string stands in
        broken.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        capsys.readouterr()
        assert run_cli("predict", "--model", str(broken), "--data", str(pipeline["test"]),
                       "--out", str(tmp_path / "curves.csv")) == 1
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"

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

    # the lower bounds checked before any file is read
    LOWS = {"seed": 0, "design_seed": 0, "depth": 0, "weight_decay": 0, "n": 1, "m": 1,
            "width": 1, "batch_size": 1, "max_epochs": 1, "patience": 1}

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "seed", -1), ("simulate", "design_seed", -2), ("fit", "seed", -3),
        ("fit", "depth", -1), ("fit", "weight_decay", float("nan")),
        ("fit", "lr", float("nan")), ("fit", "lr", float("inf")),
        ("simulate", "n", 0), ("fit", "m", 0), ("fit", "width", 0), ("fit", "batch_size", 0),
        ("fit", "max_epochs", 0), ("fit", "patience", 0), ("fit", "weight_decay", -1.0),
    ])
    def test_negative_seed_or_depth_or_non_finite_rate_exits_one(
        self, pipeline, tmp_path, capsys, via, command, key, value
    ):
        out = tmp_path / "out"
        low = self.LOWS.get(key)
        below = low is not None and value < low
        data = tmp_path / "missing.csv" if below else None
        flags = {"simulate": {"n": 10},
                 "fit": {"train": data or pipeline["train"], "val": data or pipeline["val"],
                         "m": 5, "max_epochs": 1}}[command]
        flags.pop(key, None)
        argv = [command, "--out", str(out)]
        for name, given in flags.items():
            argv += ["--" + name.replace("_", "-"), str(given)]
        flag = "--" + key.replace("_", "-")
        if via == "flag":
            argv += [flag, str(value)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg_path)]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = assert_one_line_error(capsys)
        if below:
            assert err == f"error: {flag} must be at least {low}, got {value}\n"
        assert not out.exists()

    def test_readme_flags_exist(self):
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        known = {flag for command in commands.choices.values()
                 for action in command._actions for flag in action.option_strings}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
        assert "--lr" in flags and not flags - known, sorted(flags - known)

    def test_readme_quickstart_runs(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        capsys.readouterr()
        exec(block, {})
        assert 0.5 < float(capsys.readouterr().out) <= 1.0


REQUIRED_FLAGS = {
    "simulate": ("out",), "fit": ("train", "val", "out"),
    "predict": ("model", "data", "out"), "evaluate": ("model", "data"),
}


class TestCommandChecks:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in REQUIRED_FLAGS.items() for flag in flags
    ])
    def test_missing_required_flag_is_one_exact_line(self, tmp_path, capsys, command, flag):
        argv = [command]
        for other in REQUIRED_FLAGS[command]:
            if other != flag:
                argv += ["--" + other, str(tmp_path / other)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {command} needs --{flag}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("with_times", [False, True])
    def test_num_times_checked_before_any_file_is_read(self, pipeline, tmp_path, capsys,
                                                       with_times):
        if with_times:  # a valid model and --times, which leaves --num-times unused
            model = tmp_path / "model.json"
            assert run_cli(*fit_args(pipeline, model)) == 0
            inputs = ["--model", str(model), "--data", str(pipeline["test"]), "--times", "1,2"]
        else:
            inputs = ["--model", str(tmp_path / "nope.json"), "--data", str(tmp_path / "no.csv")]
        curves_csv = tmp_path / "curves.csv"
        capsys.readouterr()
        assert run_cli("predict", *inputs, "--num-times", "0", "--out", str(curves_csv)) == 1
        assert capsys.readouterr().err == "error: --num-times must be at least 1, got 0\n"
        assert not curves_csv.exists()

    # "fit" fails on --log and "evaluate" on --out
    @pytest.mark.parametrize("command", ["simulate-out", "simulate-truth", "fit", "fit-out",
                                         "predict-out", "evaluate"])
    def test_failed_write_names_the_path(self, pipeline, tmp_path, capsys, command):
        model, out, truth = tmp_path / "model.json", tmp_path / "out", tmp_path / "truth.csv"
        if command.startswith(("predict", "evaluate")):
            assert run_cli(*fit_args(pipeline, model)) == 0
        inputs = ["--model", str(model), "--data", str(pipeline["test"])]
        argv = {
            "simulate-out": ["simulate", "--n", "10", "--out", "/dev/full", "--truth", str(truth)],
            "simulate-truth": ["simulate", "--n", "10", "--out", str(out), "--truth", "/dev/full"],
            "fit": fit_args(pipeline, out, extra=["--log", "/dev/full"]),
            "fit-out": fit_args(pipeline, "/dev/full"),
            "predict-out": ["predict", *inputs, "--out", "/dev/full"],
            "evaluate": ["evaluate", *inputs, "--out", "/dev/full"],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = assert_one_line_error(capsys)
        assert err == "error: cannot read or write a file: /dev/full: No space left on device\n"
        # the main output is written last: a failed log or truth write leaves none
        assert not out.exists()

    # json.loads raises ValueError or RecursionError here, not JSONDecodeError
    @pytest.mark.parametrize("flag", ["model", "config"])
    @pytest.mark.parametrize("text", [
        pytest.param('{"ibs_points": ' + "1" * 5000 + "}", id="huge-integer"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    ])
    def test_json_the_parser_rejects_names_the_path(self, pipeline, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()  # a bad --config is read before --model is required
        assert run_cli("evaluate", "--data", str(pipeline["test"]), f"--{flag}", str(bad)) == 1
        assert assert_one_line_error(capsys).startswith(f"error: {bad}: ")

    # Python's own message tells the user to call sys.set_int_max_str_digits()
    @pytest.mark.parametrize("flag", ["config", "model"])
    def test_huge_integer_states_the_digit_limit(self, pipeline, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lr": ' + "1" * 5000 + "}")
        argv = {"config": fit_args(pipeline, tmp_path / "out", extra=["--config", str(bad)]),
                "model": ["evaluate", "--model", str(bad), "--data", str(pipeline["test"])]}[flag]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: {bad}: an integer has more than {limit} digits\n"

    READS = {"fit": ("train", "val", "config"), "predict": ("model", "data"),
             "evaluate": ("model", "data", "truth")}

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in READS.items() for flag in flags
    ])
    def test_failed_read_names_the_path(self, pipeline, tmp_path, capsys, command, flag, kind):
        model, bad, out = tmp_path / "model.json", tmp_path / "bad", tmp_path / "out"
        if command != "fit":
            assert run_cli(*fit_args(pipeline, model)) == 0
        if kind == "directory":
            bad.mkdir()
        elif kind == "undecodable":
            bad.write_bytes(b"header\n\xff\n")
        files = {"train": pipeline["train"], "val": pipeline["val"], "model": model,
                 "data": pipeline["test"], "truth": pipeline["test_truth"], flag: bad}
        argv = [command, "--out", str(out)]
        for key in self.READS[command]:
            argv += [f"--{key}", str(files[key])] if key in files else []
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = assert_one_line_error(capsys)
        assert err.startswith("error: cannot read or write a file: ") and str(bad) in err
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


def python_process(*args, threads=1):
    """Run ``python *args`` in a child that imports this survnet, pinned to a BLAS thread count."""
    path = [PACKAGE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def cli_process(*argv, threads=1):
    """Run ``python -m survnet.cli`` in a child pinned to a BLAS thread count."""
    return python_process("-m", "survnet.cli", *argv, threads=threads)


def run_cli_process(threads, *argv):
    proc = cli_process(*argv, threads=threads)
    assert proc.returncode == 0, proc.stderr


class TestOneLineStderr:
    """What a child process prints on stderr, warnings included."""

    @pytest.mark.parametrize("argv", [["fit", "--m", "x"], ["fit", "--bogus", "1"], []],
                             ids=["bad-value", "unknown-flag", "no-command"])
    def test_argument_error_is_one_line(self, argv):
        proc = cli_process(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_overflowing_covariate_is_one_line_and_no_model(self, tmp_path):
        x0 = np.where(np.arange(60) % 2, 1e200, -1e200)
        data = SurvivalDataset(np.arange(1.0, 61.0), np.arange(60) % 2, x0[:, None])
        train, model = tmp_path / "train.csv", tmp_path / "model.json"
        write_csv(data, train)
        proc = cli_process("fit", "--train", str(train), "--val", str(train), "--out", str(model))
        assert proc.returncode == 1
        assert proc.stderr == "error: covariate 'x0' has a mean or scale that is not finite\n"
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
    def test_overflowing_fit_is_one_line(self, pipeline, tmp_path, flag):
        model = tmp_path / "model.json"
        proc = cli_process(*fit_args(pipeline, model, "pc-hazard", (flag, "1e300")))
        assert proc.returncode == 2 and not model.exists()
        assert proc.stderr.startswith("numerical failure: non-finite training loss")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("method", cli.METHODS)
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_overflowing_model_is_one_line(self, pipeline, tmp_path, command, method):
        # two hidden layers: inf - inf forms in the output sums, so outputs hold NaN
        model = tmp_path / "model.json"
        assert run_cli(*fit_args(pipeline, model, method, ("--depth", "2"))) == 0
        doc = json.loads(model.read_text())
        doc["net"]["weights"] = [[w * 1e200 for w in ws] for ws in doc["net"]["weights"]]
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = cli_process(command, "--model", str(model), "--data", str(pipeline["test"]),
                           "--out", str(out))
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr == "numerical failure: the network's outputs contain NaN\n"

    def test_grid_shrink_is_one_warning_line(self, tmp_path):
        train, model = tmp_path / "train.csv", tmp_path / "model.json"
        write_csv(generate_dataset(SimConfig(n=60, seed=1)).data, train)
        proc = cli_process("fit", "--train", str(train), "--val", str(train), "--m", "50",
                           "--max-epochs", "1", "--out", str(model))
        assert proc.returncode == 0 and model.exists()
        assert proc.stderr.startswith("warning: quantile grid reduced from 50 to ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        m = json.loads(model.read_text())["net"]["widths"][-1]
        assert f" to {m} intervals" in proc.stderr


def test_commands_leave_numpy_ma_unimported(pipeline, tmp_path):
    """fit, predict and evaluate dedupe without np.unique, which imports numpy.ma."""
    model = tmp_path / "model.json"
    inputs = ["--model", str(model), "--data", str(pipeline["test"])]
    argvs = [fit_args(pipeline, model), ["predict", *inputs, "--out", str(tmp_path / "c.csv")],
             ["evaluate", *inputs, "--truth", str(pipeline["test_truth"])]]
    proc = python_process("-c", "import sys, numpy; before = set(sys.modules); "
                          f"from survnet import cli; assert [cli.main(a) for a in {argvs!r}] == "
                          "[0, 0, 0]; print('numpy.ma' in set(sys.modules) - before)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
