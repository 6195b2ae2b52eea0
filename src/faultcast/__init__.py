"""faultcast: multi-label fault forecasting for multivariate time series.

An encoder-decoder LSTM, written from scratch on numpy with exact hand-coded
gradients, embeds a sample so that each embedding dimension's sign predicts
one fault label over a future window, with per-step localization on top.
Includes class-imbalance-weighted losses, three decision rules, micro/macro
evaluation, a learnable synthetic benchmark generator, and adapters for two
public datasets.
"""

from .classifiers import (
    LabelClassifier,
    broadcast_baseline,
    classify,
    fit_classifier,
)
from .data import (
    DatasetError,
    DatasetMeta,
    ModelDims,
    Sample,
    SynthConfig,
    class_stats,
    load_dataset,
    save_dataset,
    split_samples,
    synth_generate,
)
from .losses import LossBreakdown, batch_loss, class_weights
from .lstm import LstmParams, init_params, lstm_step
from .metrics import CountTable, PrfReport, confusion_counts, prf, segment_report, stepwise_report
from .model import (
    ForecastModel,
    Prediction,
    backward,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
)
from .num import make_rng
from .training import (
    TrainConfig,
    default_grid,
    grad_check,
    grid_search,
    optimizer_step,
    train,
    train_population,
)

__version__ = "0.1.0"
