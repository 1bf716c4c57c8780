"""Command-line pipeline: simulate, fit, predict and evaluate survival models.

Flags override values from an optional JSON config file, which in turn
override built-in defaults. ``main`` checks the required flags and the lower
bounds of the merged values, used or not, before any file is read, then calls
``run_<command>(cfg)``. Models persist as versioned JSON holding the time grid,
the network parameters and the covariate standardizer. Exit codes: 0 success,
1 validation or schema error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import dataset as ds
from . import grid as grid_
from . import metrics as metrics_
from . import net as net_
from . import sim as sim_
from .curves import (
    SurvivalCurve,
    pc_hazard_curve,
    surv_from_hazard,
    surv_from_pmf,
    write_curves_csv,
)
from .errors import NumericalError, SchemaError, SurvnetError, ValidationError
from .losses import nll_logistic_hazard, nll_pc_hazard, nll_pmf, sigmoid, softplus

FORMAT_VERSION = "1"
# looked up per call, so the entries can be wrapped (perfbench/spans.py does)
LOSSES = {
    "pmf": nll_pmf,
    "logistic-hazard": nll_logistic_hazard,
    "pc-hazard": nll_pc_hazard,
}
METHODS = tuple(LOSSES)
GRID_SCHEMES = ("equidistant", "km-quantile")
INTERPOLATIONS = ("none", "cdi", "chi")

CHOICES = {"method": METHODS, "grid_scheme": GRID_SCHEMES, "interp": INTERPOLATIONS}
LOWER_BOUNDS = {"n": 1, "m": 1, "width": 1, "batch_size": 1, "max_epochs": 1, "patience": 1,
                "num_times": 1, "ibs_points": 2, "seed": 0, "design_seed": 0, "depth": 0,
                "weight_decay": 0}

SIMULATE_DEFAULTS = {
    "n": 1000,
    "seed": 0,
    "design_seed": 0,
    "censor_hazard": sim_.DEFAULT_CENSOR_HAZARD,
    "out": None,
    "truth": None,
}

FIT_DEFAULTS = {
    "method": "logistic-hazard",
    "train": None,
    "val": None,
    "grid_scheme": "km-quantile",
    "m": 25,
    "width": 64,
    "depth": 2,
    "dropout": 0.0,
    "batch_size": 256,
    "lr": 0.01,
    "weight_decay": 0.0,
    "max_epochs": 100,
    "patience": 10,
    "seed": 0,
    "out": None,
    "log": None,
}

PREDICT_DEFAULTS = {
    "model": None,
    "data": None,
    "interp": "none",
    "times": None,
    "num_times": 100,
    "out": None,
}

EVALUATE_DEFAULTS = {
    "model": None,
    "data": None,
    "truth": None,
    "interp": "none",
    "ibs_points": 100,
    "out": None,
}


class _Parser(argparse.ArgumentParser):
    """Argparse with validation failures mapped to exit code 1."""

    def error(self, message):
        raise ValidationError(message)


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults < --config file < flags; config values get the checks flags get."""
    cfg = dict(defaults)
    if args.config:
        with ds._open(args.config) as fh:
            loaded = _read_json(fh)
            unknown = set(loaded) - set(defaults)
            if unknown:
                raise ValidationError(f"unknown config keys: {sorted(unknown)}")
            for key, value in loaded.items():
                if not _config_type_ok(defaults[key], value):
                    raise ValidationError(f"config {key!r} has the wrong type: {value!r}")
                if key in CHOICES and value not in CHOICES[key]:
                    raise ValidationError(
                        f"config {key!r} must be one of {CHOICES[key]}, got {value!r}"
                    )
                cfg[key] = float(value) if isinstance(defaults[key], float) else value
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _read_json(fh) -> dict:
    """The JSON object in the open file ``fh``; any other content raises SchemaError."""
    text = fh.read()  # outside the try: a UnicodeDecodeError is a ValueError too
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # also deep nesting
        raise SchemaError(str(exc)) from None
    except ValueError:  # json's only other error: an integer past int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"an integer has more than {limit} digits") from None
    if not isinstance(doc, dict):
        raise SchemaError("must hold a JSON object")
    return doc


def _config_type_ok(default, value) -> bool:
    """Config values take the type of their default; None defaults take strings."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float):
        # ints too, unless float() would overflow
        return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    return type(value) is type(default)


def save_model(path, method, time_grid, net, standardizer) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "grid": {"cuts": time_grid.cuts.tolist()},
        "net": net_.net_to_dict(net),
        "standardizer": {
            "means": standardizer.means.tolist(),
            "stds": standardizer.stds.tolist(),
        },
    }
    # dumps takes the C encoder; dump would encode in Python
    ds._write_text(path, json.dumps(doc) + "\n")


def load_model(path):
    with ds._open(path) as fh:
        doc = _read_json(fh)
        try:
            version = doc["format_version"]
            if version != FORMAT_VERSION:
                raise SchemaError(f"format_version {version!r} is not {FORMAT_VERSION!r}")
            if doc["method"] not in METHODS:
                raise SchemaError(f"unknown method {doc['method']!r}")
            time_grid = grid_.TimeGrid(doc["grid"]["cuts"])
            net = net_.net_from_dict(doc["net"])
            std = ds.Standardizer(doc["standardizer"]["means"], doc["standardizer"]["stds"])
        except KeyError as exc:  # str() of a KeyError is the repr of its key
            raise SchemaError(f"model file is missing {exc}") from None
        except OverflowError:  # a JSON integer past the largest float
            raise SchemaError("model file holds a number beyond float range") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed model file: {exc}") from None
        except ValidationError as exc:  # the checks above, or a value a constructor rejects
            raise SchemaError(str(exc)) from None
        # json.loads accepts NaN and Infinity
        if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases, std.means)):
            raise SchemaError("model file holds a non-finite weight, bias or mean")
        if not ((std.stds > 0) & (std.stds < np.inf)).all():
            raise SchemaError("standardizer scales must be finite and positive")
        if net.out_dim != time_grid.m:
            raise SchemaError(
                f"network outputs {net.out_dim} values, grid has {time_grid.m} intervals"
            )
    return doc["method"], time_grid, net, std


def predict_curves(method, net, time_grid, covariates, interp: str = "none") -> SurvivalCurve:
    """Survival curves for a covariate matrix under the given method.

    The interpolation flag reinterprets the discrete estimates at evaluation
    time only; the piecewise-constant hazard method ignores it since its curve
    is already continuous.
    """
    logits = net_.forward(net, covariates)
    if np.isnan(logits).any():  # +-inf outputs read as limits: hazard 0 or 1, mass 0 or inf
        raise NumericalError("the network's outputs contain NaN")
    if method == "logistic-hazard":
        curve = surv_from_hazard(sigmoid(logits), time_grid)
    elif method == "pmf":
        curve = surv_from_pmf(logits, time_grid)
    elif method == "pc-hazard":
        return pc_hazard_curve(softplus(logits), time_grid)
    else:
        raise ValidationError(f"unknown method {method!r}")
    if interp != "none":
        curve = curve.with_kind(interp)
    return curve


def evaluate_curves(curve, durations, events, ibs_points: int = 100,
                    truth=None, truth_times=None) -> list:
    """Metric reports for predicted curves against observed outcomes.

    This is the evaluation core behind the evaluate subcommand; tests can call
    it directly with hand-built curves. The truth, if given, is an individuals
    x truth_times array or a sim.GammaSet (see metrics.mse_vs_truth).
    """
    n = len(durations)
    concordance = metrics_.td_concordance(curve, durations, events)
    reports = [metrics_.report("td_concordance", concordance, n)]
    eval_grid = metrics_.EvalGrid.equidistant(durations, ibs_points)
    ibs = metrics_.integrated_brier_score(curve, durations, events, eval_grid)
    reports.append(metrics_.report("integrated_brier_score", ibs, n))
    if truth is not None:
        mse = metrics_.mse_vs_truth(curve, truth, metrics_.EvalGrid(truth_times))
        reports.append(metrics_.report("mse_vs_truth", mse, n))
    return reports


def run_simulate(cfg) -> int:
    sim_cfg = sim_.SimConfig(
        n=cfg["n"],
        seed=cfg["seed"],
        design_seed=cfg["design_seed"],
        censor_hazard=cfg["censor_hazard"],
    )
    result = sim_.generate_dataset(sim_cfg)
    truth_path = cfg["truth"] or f"{cfg['out']}.truth.csv"
    sim_.write_truth_csv(truth_path, result)  # dataset last: a failed truth leaves none
    ds.write_csv(result.data, cfg["out"])
    print(
        f"simulated n={result.data.n} (censored fraction "
        f"{result.censored_fraction:.4f}) -> {cfg['out']}, truth -> {truth_path}"
    )
    return 0


def _labels_for(method, data, time_grid):
    if method == "pc-hazard":
        return grid_.continuous_labels(data, time_grid)
    return grid_.discretize(data, time_grid)


def run_fit(cfg) -> int:
    method = cfg["method"]
    train = ds.load_csv(cfg["train"])
    val = ds.load_csv(cfg["val"])
    std = ds.fit_standardizer(train)
    train_s, val_s = std.apply(train), std.apply(val)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", grid_.GridDeduplicationWarning)
        if cfg["grid_scheme"] == "equidistant":
            time_grid = grid_.equidistant_grid(float(train.durations.max()), cfg["m"])
        else:
            time_grid = grid_.km_quantile_grid(train, cfg["m"])
    for caught_warning in caught:  # e.g. the quantile grid shrank
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    train_labels = _labels_for(method, train, time_grid)
    val_labels = _labels_for(method, val, time_grid)
    widths = [train.p] + [cfg["width"]] * cfg["depth"] + [time_grid.m]
    net = net_.init_mlp(widths, dropout=cfg["dropout"], seed=cfg["seed"])
    train_cfg = net_.TrainConfig(
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        seed=cfg["seed"],
        weight_decay=cfg["weight_decay"],
    )
    trained, log = net_.fit(
        net, LOSSES[method], train_s.covariates, train_labels,
        val_s.covariates, val_labels, train_cfg,
    )
    if cfg["log"]:  # the model last, so a failed log write leaves no model
        ds._write_text(cfg["log"], "".join(json.dumps(entry) + "\n" for entry in log))
    save_model(cfg["out"], method, time_grid, trained, std)
    best = min(entry["val_loss"] for entry in log)
    print(
        f"fitted {method} with {time_grid.m} intervals in {len(log)} epochs "
        f"(best val loss {best:.6f}) -> {cfg['out']}"
    )
    untrained = LOSSES[method](net_.forward(net, val_s.covariates), val_labels, grad=False).value
    if not best < untrained:
        print(
            f"warning: best val loss {best:.6f} is not below the untrained network's "
            f"{untrained:.6f}; the fit diverged or learned nothing",
            file=sys.stderr,
        )
    return 0


def _parse_times(raw: str) -> np.ndarray:
    try:  # an empty entry, or an empty string, is no number
        times = np.array([float(v) for v in raw.split(",")])
    except ValueError:
        raise ValidationError(f"cannot parse times {raw!r}") from None
    if not np.isfinite(times).all():
        raise ValidationError(f"times must be finite, got {raw!r}")
    if np.any(np.diff(times) <= 0):
        raise ValidationError(f"times must be increasing, got {raw!r}")
    return times


def _model_curves(cfg):
    """The grid, the standardized --data and its curves under the --model."""
    method, time_grid, net, std = load_model(cfg["model"])
    data = ds.load_csv(cfg["data"])
    with ds._naming(cfg["data"], against=cfg["model"]):
        data = std.apply(data)
    return time_grid, data, predict_curves(method, net, time_grid, data.covariates, cfg["interp"])


def run_predict(cfg) -> int:
    time_grid, data, curve = _model_curves(cfg)
    times = (_parse_times(cfg["times"]) if cfg["times"] is not None
             else np.linspace(0.0, time_grid.t_max, cfg["num_times"]))
    write_curves_csv(cfg["out"], times, curve.evaluate(times))
    print(f"wrote {data.n} curves at {times.size} times -> {cfg['out']}")
    return 0


def run_evaluate(cfg) -> int:
    _, data, curve = _model_curves(cfg)
    truth = truth_times = None
    if cfg["truth"]:
        truth_times, truth = sim_.load_truth_csv(cfg["truth"])
        with ds._naming(cfg["truth"], against=cfg["data"]):  # before any metric is computed
            if len(truth.gamma) != data.n:
                raise ValidationError(f"truth has {len(truth.gamma)} rows for {data.n} individuals")
    reports = evaluate_curves(
        curve, data.durations, data.events, cfg["ibs_points"], truth, truth_times
    )
    text = json.dumps(reports, indent=2)
    if cfg["out"]:
        ds._write_text(cfg["out"], text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Per command, one flag per key of its defaults, typed as the default, plus --config."""
    parser = _Parser(prog="survnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (  # name, help, defaults, required flags, handler
        ("simulate", "generate a synthetic dataset plus truth",
         SIMULATE_DEFAULTS, ("out",), run_simulate),
        ("fit", "train a survival model", FIT_DEFAULTS, ("train", "val", "out"), run_fit),
        ("predict", "write survival curves to CSV",
         PREDICT_DEFAULTS, ("model", "data", "out"), run_predict),
        ("evaluate", "score a model on a dataset",
         EVALUATE_DEFAULTS, ("model", "data"), run_evaluate),
    )
    for name, help_text, defaults, required, func in commands:
        command = sub.add_parser(name, help=help_text)
        for key, default in defaults.items():
            command.add_argument(
                "--" + key.replace("_", "-"), dest=key, choices=CHOICES.get(key),
                type=str if default is None else type(default),
            )
        command.add_argument("--config")
        command.set_defaults(func=func, defaults=defaults, required=required)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge(args, args.defaults)
        for key in args.required:
            if not cfg[key]:
                raise ValidationError(f"{args.command} needs --{key}")
        for key, low in LOWER_BOUNDS.items():
            if key in cfg and cfg[key] < low:
                flag = "--" + key.replace("_", "-")
                raise ValidationError(f"{flag} must be at least {low}, got {cfg[key]}")
        # overflow surfaces through the explicit checks on losses and curves
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SurvnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read or write a file: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
