"""Prediction accuracy metrics (Section 5.3).

The paper reports three metrics per (predictor, machine):

* **MAPE** — mean absolute percentage error of predictions over
  measurements,
* **Pearson CC** — linear correlation between predictions and measurements,
* **Spearman CC** — rank correlation (does the predictor order experiments
  correctly?).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.core.experiment import Experiment, ExperimentSet
from repro.throughput.predictor import ThroughputPredictor

__all__ = ["mape", "pearson_cc", "spearman_cc", "AccuracyReport", "evaluate_predictor"]


def _validate(predicted: np.ndarray, measured: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    if predicted.shape != measured.shape or predicted.ndim != 1:
        raise ReproError("prediction and measurement arrays must be 1-D and equal-length")
    if predicted.size == 0:
        raise ReproError("need at least one data point")
    if np.any(measured <= 0):
        raise ReproError("measured throughputs must be positive")
    return predicted, measured


def mape(predicted: Iterable[float], measured: Iterable[float]) -> float:
    """Mean absolute percentage error, in percent."""
    p, m = _validate(np.fromiter(predicted, float), np.fromiter(measured, float))
    return float(100.0 * np.mean(np.abs(p - m) / m))


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """Divide by the max magnitude so constant scale factors cancel early.

    Correlations are scale-invariant in exact arithmetic, but a predictor
    that is off by an extreme constant factor pushes the raw values toward
    the edges of the float range where centering and squaring lose digits.
    Normalizing first keeps both series in [-1, 1].
    """
    scale = float(np.max(np.abs(values)))
    return values / scale if scale > 0.0 else values


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denominator = float(np.linalg.norm(xc) * np.linalg.norm(yc))
    if denominator == 0.0:
        return 0.0
    return float(np.clip(np.dot(xc, yc) / denominator, -1.0, 1.0))


def pearson_cc(predicted: Iterable[float], measured: Iterable[float]) -> float:
    """Pearson correlation coefficient in [-1, 1].

    Degenerate series (constant, or containing non-finite predictions)
    yield 0.0 rather than NaN, so reports stay well-defined.  Each series
    is normalized to unit scale before the dot product so extreme constant
    scale factors cannot degrade the result.
    """
    p, m = _validate(np.fromiter(predicted, float), np.fromiter(measured, float))
    if not (np.isfinite(p).all() and np.isfinite(m).all()):
        return 0.0
    return _pearson(_unit_scaled(p), _unit_scaled(m))


def _robust_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks after snapping away float-noise distinctions.

    Each value is rounded to 12 significant digits (per value, so wide
    dynamic ranges keep their genuine order): multiplying a series by a
    constant factor can round two almost-equal measurements onto the same
    float (or pull exact ties apart), which would otherwise change the
    rank structure and break the scale invariance of the rank correlation.
    """
    snapped = np.zeros_like(values)
    nonzero = values != 0.0
    exponent = np.floor(np.log10(np.abs(values[nonzero])))
    # Clamp so 10**(exponent - 11) stays a normal float: subnormal values
    # (below ~1e-296) snap onto an absolute 1e-307 grid instead of
    # underflowing the scale to zero and producing NaN ranks.
    exponent = np.maximum(exponent, -296.0)
    scale = 10.0 ** (exponent - 11)
    snapped[nonzero] = np.round(values[nonzero] / scale) * scale
    # Imported here: scipy.stats pulls in scipy.optimize, and the CLI
    # imports this module whether or not it ranks anything.
    from scipy.stats import rankdata

    return rankdata(snapped)


def spearman_cc(predicted: Iterable[float], measured: Iterable[float]) -> float:
    """Spearman rank correlation coefficient in [-1, 1].

    Degenerate series (constant, or containing non-finite predictions)
    yield 0.0 rather than NaN, and ranks are computed on noise-snapped
    values (see :func:`_robust_ranks`) so a constant-factor predictor
    scores exactly 1.
    """
    p, m = _validate(np.fromiter(predicted, float), np.fromiter(measured, float))
    if not (np.isfinite(p).all() and np.isfinite(m).all()):
        return 0.0
    return _pearson(_robust_ranks(p), _robust_ranks(m))


@dataclass(frozen=True)
class AccuracyReport:
    """One row of Table 3/4: a predictor's accuracy on a benchmark set."""

    predictor: str
    machine: str
    mape: float
    pearson: float
    spearman: float
    num_experiments: int
    predicted: tuple[float, ...]
    measured: tuple[float, ...]

    def row(self) -> dict[str, str]:
        """Formatted table row matching the paper's layout."""
        return {
            "predictor": self.predictor,
            "MAPE": f"{self.mape:.1f}%",
            "Pearson CC": f"{self.pearson:.2f}",
            "Spearman CC": f"{self.spearman:.2f}",
        }


def evaluate_predictor(
    predictor: ThroughputPredictor,
    benchmark: ExperimentSet,
    machine_name: str = "",
) -> AccuracyReport:
    """Evaluate a predictor against measured experiments."""
    experiments: Sequence[Experiment] = benchmark.experiments
    measured = np.array(benchmark.throughputs)
    predicted = np.array([predictor.predict(e) for e in experiments])
    p, m = _validate(predicted, measured)
    return AccuracyReport(
        predictor=predictor.name,
        machine=machine_name,
        mape=mape(p, m),
        pearson=pearson_cc(p, m),
        spearman=spearman_cc(p, m),
        num_experiments=len(experiments),
        predicted=tuple(float(x) for x in p),
        measured=tuple(float(x) for x in m),
    )
