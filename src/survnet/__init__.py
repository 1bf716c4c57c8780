"""Neural-network survival prediction on right-censored data.

Three methods share one pipeline: a softmax parametrization of the event-time
probabilities per interval (pmf), a logistic parametrization of the discrete
hazards (logistic-hazard), and a continuous-time model with piecewise-constant
hazards (pc-hazard). The package also provides time-grid construction,
survival-curve interpolation, evaluation metrics, a synthetic data generator
with known truth, and a command-line pipeline.
"""

from .dataset import (
    Standardizer,
    SurvivalDataset,
    fit_standardizer,
    load_csv,
    split,
    write_csv,
)
from .errors import (
    MetricUndefinedError,
    NumericalError,
    SchemaError,
    SurvnetError,
    ValidationError,
)
from .grid import (
    DiscreteLabels,
    GridDeduplicationWarning,
    TimeGrid,
    continuous_labels,
    discretize,
    equidistant_grid,
    km_quantile_grid,
)
from .km import KaplanMeierCurve
from .losses import (
    LossOutput,
    cumsum_head,
    nll_logistic_hazard,
    nll_pc_hazard,
    nll_pmf,
    sigmoid,
    softplus,
)
from .curves import (
    SurvivalCurve,
    pc_hazard_curve,
    pmf_probs,
    surv_from_hazard,
    surv_from_pmf,
)
from .net import Mlp, TrainConfig, forward, init_mlp
from .net import fit as fit_net
from .metrics import EvalGrid, integrated_brier_score, mse_vs_truth, td_concordance
from .sim import GammaSet, SimConfig, generate_dataset, true_survival

__version__ = "0.2.0"

__all__ = [
    "DiscreteLabels",
    "EvalGrid",
    "GammaSet",
    "GridDeduplicationWarning",
    "KaplanMeierCurve",
    "LossOutput",
    "MetricUndefinedError",
    "Mlp",
    "NumericalError",
    "SchemaError",
    "SimConfig",
    "Standardizer",
    "SurvivalCurve",
    "SurvivalDataset",
    "SurvnetError",
    "TimeGrid",
    "TrainConfig",
    "ValidationError",
    "continuous_labels",
    "cumsum_head",
    "discretize",
    "equidistant_grid",
    "fit_net",
    "fit_standardizer",
    "forward",
    "generate_dataset",
    "init_mlp",
    "integrated_brier_score",
    "km_quantile_grid",
    "load_csv",
    "mse_vs_truth",
    "nll_logistic_hazard",
    "nll_pc_hazard",
    "nll_pmf",
    "pc_hazard_curve",
    "pmf_probs",
    "sigmoid",
    "softplus",
    "split",
    "surv_from_hazard",
    "surv_from_pmf",
    "td_concordance",
    "true_survival",
    "write_csv",
]
