"""panelcast: probabilistic forecasting for panels of related time series.

One global autoregressive recurrent model is trained across all series of
a panel and produces full predictive distributions via Monte Carlo
sampling, with Gaussian and negative-binomial noise models, magnitude
scaling for heavy-tailed panels, and span-based evaluation metrics.
"""

__version__ = "0.6.0"
