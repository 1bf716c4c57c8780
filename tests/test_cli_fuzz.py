"""Damaged inputs through the command line, in process.

A dataset CSV, a truth file, a model file of each method and a fit config
are cut short, have bytes changed or deleted, or get tokens inserted that
readers trip on. Beside them run fixed extreme values: a config whose
learning rate, weight decay or dropout is 1e300, -0.0 or 0.9999999999999999,
a config of learning rate 1e300 over batches of 16, a training set with one
covariate scaled by 1e200 or with no events, and, per method, a model whose
outputs hold NaN, one whose first output is +inf for every row and one whose
second cut is the JSON integer 10**400.
Every command run on them must exit 0, 1 or 2 with at most one line on
stderr and no traceback, each Python warning counted as the two lines it
would print outside pytest, and that line names the damaged file at most
once and holds no Python exception repr; on exit 0 every report, model and
log written must be strict JSON and every curves file must hold survival
values in [0, 1], and on exit 2 the line is a numerical failure. The cases
come from one fixed seed, so a run repeats exactly, and they reach all
three exits.
"""

import csv
import json
import math
import re
import warnings

import numpy as np
import pytest

from survnet import cli
from survnet.dataset import load_csv
from survnet.net import forward

N_CASES = 300
# 1e300 overflows once multiplied; the last two are the non-finite literals
# json.load accepts
TOKENS = [
    b"nan", b"inf", b"-inf", b"1e400", b"1e300", b"\n", b"\r\n", b"\n\n", b'"', b",", b"-",
    b"null", b"[]", b"NaN", b"Infinity",
]
SMALL_FIT = ["--m", "5", "--width", "8", "--depth", "1", "--max-epochs", "2", "--patience", "1"]


NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")
# such as KeyError('cuts') or OverflowError('int too large to convert to float')
EXCEPTION_REPR = re.compile(r"\w+(Error|Exception)\(")


def damage(data: bytes, rng) -> bytes:
    """One to three truncations, byte edits, deletions, token insertions or
    numbers replaced by a token."""
    for _ in range(rng.integers(1, 4)):
        pos = int(rng.integers(0, len(data) + 1))
        token = TOKENS[rng.integers(0, len(TOKENS))]
        kind = rng.integers(0, 5)
        numbers = list(NUMBER.finditer(data))
        if kind == 0:
            data = data[:pos]
        elif kind == 1 and pos < len(data):
            data = data[:pos] + bytes([rng.integers(0, 256)]) + data[pos + 1 :]
        elif kind == 2:
            data = data[:pos] + data[pos + int(rng.integers(1, 8)) :]
        elif kind == 3 or not numbers:
            data = data[:pos] + token + data[pos:]
        else:
            number = numbers[rng.integers(0, len(numbers))]
            data = data[: number.start()] + token + data[number.end() :]
    return data


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Clean files: train, val and test data with truth, a model per method, a config."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    files = {}
    for name, n, seed in (("train", 120, 1), ("val", 80, 2), ("test", 60, 3)):
        files[name], files[f"{name}_truth"] = root / f"{name}.csv", root / f"{name}_truth.csv"
        assert cli.main([
            "simulate", "--n", str(n), "--seed", str(seed),
            "--out", str(files[name]), "--truth", str(files[f"{name}_truth"]),
        ]) == 0
    for method in cli.METHODS:
        files[method] = root / f"{method}.json"
        assert cli.main([
            "fit", "--method", method, "--train", str(files["train"]),
            "--val", str(files["val"]), "--out", str(files[method]), *SMALL_FIT,
        ]) == 0
    files["config"] = root / "config.json"
    files["config"].write_text(json.dumps({
        "method": "pc-hazard", "train": str(files["train"]), "val": str(files["val"]),
        "m": 5, "width": 8, "depth": 1, "max_epochs": 2, "patience": 1,
    }))
    return files


def value_cases(files, root):
    """(target, file) pairs for the clean inputs with extreme values."""
    config = json.loads(files["config"].read_text())
    for key in ("lr", "weight_decay", "dropout"):
        for value in (1e300, -0.0, 0.9999999999999999):
            path = root / f"{key}_{value!r}.json"
            path.write_text(json.dumps({**config, key: value}))
            yield "config", path
    # eight batches per epoch, so the training loss is checked before the validation loss
    path = root / "lr_1e300_batch_16.json"
    path.write_text(json.dumps({**config, "batch_size": 16, "lr": 1e300}))
    yield "config", path
    # the training set with its first covariate scaled by 1e200, then with no events
    header, *rows = files["train"].read_text().splitlines()
    rows = [row.split(",") for row in rows]
    for name, column, change in (("scaled", 2, lambda v: repr(float(v) * 1e200)),
                                 ("no_events", 1, lambda v: "0")):
        path = root / f"train_{name}.csv"
        lines = [",".join([*row[:column], change(row[column]), *row[column + 1 :]]) for row in rows]
        path.write_text("\n".join([header, *lines, ""]))
        yield "train", path
    for method in cli.METHODS:
        # Every hidden unit computes the same 1e308 * (row sum + 1), which is
        # +inf for some rows; output weights alternating in sign over the
        # hidden units then sum inf - inf.
        doc = json.loads(files[method].read_text())
        net = doc["net"]
        fan_in, fan_out = net["widths"][-2:]
        net["weights"][0] = [1e308] * len(net["weights"][0])
        net["biases"][0] = [1e308] * len(net["biases"][0])
        net["weights"][-1] = [(-1.0) ** k for k in range(fan_in) for _ in range(fan_out)]
        path = root / f"{method}_nan_outputs.json"
        path.write_text(json.dumps(doc))
        yield method, path
        yield method, infinite_output_model(files, method, root)
        # an integer float() cannot hold
        doc = json.loads(files[method].read_text())
        doc["grid"]["cuts"][1] = 10**400
        path = root / f"{method}_huge_cut.json"
        path.write_text(json.dumps(doc))
        yield method, path


def infinite_output_model(files, method, root):
    """The method's model with its first output overflowing to +inf for every row.

    Output 0 gets bias 1.7e308 and weight 1e308 from every hidden unit, so any
    positive hidden activation carries it past the largest float.
    """
    doc = json.loads(files[method].read_text())
    net = doc["net"]
    fan_in, fan_out = net["widths"][-2:]
    for k in range(fan_in):
        net["weights"][-1][k * fan_out] = 1e308
    net["biases"][-1][0] = 1.7e308
    path = root / f"{method}_inf_outputs.json"
    path.write_text(json.dumps(doc))
    return path


def commands(target, damaged, files, out):
    """The command lines that read the damaged file in place of the clean one."""
    model = str(files["pmf"])
    evaluate = ["evaluate", "--model", model, "--data", str(files["test"]),
                "--truth", str(files["test_truth"]), "--out", str(out["report"])]
    if target == "config":
        return [["fit", "--config", str(damaged), "--out", str(out["model"]),
                 "--log", str(out["log"])]]
    if target == "test_truth":
        return [["evaluate", "--model", model, "--data", str(files["test"]),
                 "--truth", str(damaged), "--out", str(out["report"])]]
    if target in cli.METHODS:
        return [
            ["predict", "--model", str(damaged), "--data", str(files["test"]),
             "--num-times", "20", "--out", str(out["curves"])],
            [*evaluate[:2], str(damaged), *evaluate[3:]],
        ]
    # a dataset: as training data, and as the data predicted and scored
    return [
        ["fit", "--train", str(damaged), "--val", str(files["val"]), *SMALL_FIT,
         "--out", str(out["model"]), "--log", str(out["log"])],
        ["predict", "--model", model, "--data", str(damaged), "--num-times", "20",
         "--out", str(out["curves"])],
        ["evaluate", "--model", model, "--data", str(damaged), "--out", str(out["report"])],
    ]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_outputs(out):
    """Problems with what a successful run wrote, as a list of strings."""
    problems = []
    for name in ("report", "model"):
        if out[name].exists():
            try:
                json.loads(out[name].read_text(), parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"{name} is not strict JSON: {exc}")
    if out["log"].exists():
        for line in out["log"].read_text().splitlines():
            try:
                json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"log is not strict JSON: {exc}")
    if out["curves"].exists():
        with open(out["curves"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(v) for row in rows for v in row[1:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append("curves hold a value outside [0, 1]")
        if not all(math.isfinite(float(row[0])) for row in rows):
            problems.append("curves hold a non-finite time")
    return problems


def test_damaged_inputs_exit_cleanly(inputs, tmp_path, capsys):
    rng = np.random.default_rng(20261019)
    targets = ["train", "test", "test_truth", *cli.METHODS, "config"]
    out = {name: tmp_path / f"out.{name}" for name in ("report", "model", "log", "curves")}
    failures, runs = [], []

    def run_all(case, target, path):
        for argv in commands(target, path, inputs, out):
            for output in out.values():
                output.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = cli.main(argv)
            except BaseException as exc:  # noqa: BLE001 - an escape is the finding
                failures.append((case, argv[0], target, f"raised {exc!r}"))
                continue
            err = capsys.readouterr().err
            runs.append((code, err))
            problems = []
            if code not in (0, 1, 2):
                problems.append(f"exit {code}")
            # outside pytest a warning prints its message and its source line
            if err.count("\n") + 2 * len(caught) > 1 or "Traceback" in err:
                problems.append(f"stderr {err!r}, warnings {[str(w.message) for w in caught]}")
            if err.count(str(path)) > 1:
                problems.append(f"stderr names the damaged file more than once: {err!r}")
            if EXCEPTION_REPR.search(err):
                problems.append(f"stderr holds a Python exception repr: {err!r}")
            if code == 0:
                problems += check_outputs(out)
            if code == 2 and not err.startswith("numerical failure: "):
                problems.append(f"exit 2 with stderr {err!r}")
            if problems:
                failures.append((case, argv[0], target, problems))

    for case in range(N_CASES):
        target = targets[case % len(targets)]
        damaged = tmp_path / f"damaged{inputs[target].suffix}"
        damaged.write_bytes(damage(inputs[target].read_bytes(), rng))
        run_all(case, target, damaged)
    for target, path in value_cases(inputs, tmp_path):
        run_all("value", target, path)
    assert not failures, failures[:5]
    exits = [code for code, _ in runs]
    # the damage must leave some runs succeeding and make others fail
    assert 0 < exits.count(0) < len(exits)
    assert {0, 1, 2} <= set(exits)


@pytest.mark.parametrize("interp", cli.INTERPOLATIONS)
@pytest.mark.parametrize("method", cli.METHODS)
def test_infinite_outputs_give_curves_in_the_unit_interval(inputs, tmp_path, method, interp):
    model = infinite_output_model(inputs, method, tmp_path)
    _, time_grid, net, std = cli.load_model(model)
    covariates = std.apply(load_csv(inputs["test"])).covariates
    with np.errstate(over="ignore"):
        assert np.isposinf(forward(net, covariates)[:, 0]).all()
    out = {name: tmp_path / f"out.{name}" for name in ("report", "model", "log", "curves")}
    assert cli.main(["predict", "--model", str(model), "--data", str(inputs["test"]),
                     "--interp", interp, "--out", str(out["curves"])]) == 0
    assert check_outputs(out) == []
    with open(out["curves"], newline="") as fh:
        _, first, *_ = csv.reader(fh)
    assert float(first[0]) == 0.0 and all(float(v) == 1.0 for v in first[1:])
