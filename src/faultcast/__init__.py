"""faultcast: multi-label fault forecasting for multivariate time series.

An encoder-decoder LSTM, written from scratch on numpy with exact hand-coded
gradients, embeds a sample so that each embedding dimension's sign predicts
one fault label over a future window, with per-step localization on top.
Includes class-imbalance-weighted losses, three decision rules, micro/macro
evaluation, a learnable synthetic benchmark generator, and adapters for two
public datasets.
"""

__version__ = "0.1.0"
