"""Scalar calibration of the default tables, the reference for the batched one.

``hwmodel`` bisects the sigma scale of every default table at once, reads
only the diagonal of each step's confusion matrices and stops at the
bisection's fixed point. This module keeps the per-entry code those
shortcuts must reproduce bit for bit: one full 80-step bisection per
(technology, voltage, block size, precision) key, one latency model per
step, the confusion matrix filled cell by cell from ``np.vectorize(math.erf)``
and its largest misread probability read from the whole diagonal.
"""

import math

import numpy as np

from hdtcam.hwmodel import _MAX_ERROR_TARGET, _T1_NS


def max_error_probability(cm):
    """Largest misread probability per matrix of a (..., P+1, P+1) stack."""
    return np.max(1.0 - np.diagonal(cm, axis1=-2, axis2=-1), axis=-1)


def norm_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def confusion_loop(mu_ns, sigma_ns, match_timeout_ns):
    """(P+1)x(P+1) matrix of P(reported j | true i) under the midpoint rule."""
    p = len(mu_ns)
    cm = np.zeros((p + 1, p + 1))
    cm[0, 0] = 1.0
    mids = (mu_ns[:-1] + mu_ns[1:]) / 2.0
    thresholds = np.concatenate([mids[::-1], [match_timeout_ns]])
    for i in range(1, p + 1):
        mu, sigma = mu_ns[i - 1], sigma_ns[i - 1]
        cdf = norm_cdf((thresholds - mu) / sigma)
        edges = np.concatenate([[0.0], cdf, [1.0]])
        mass = np.diff(edges)  # index k: latency bin k, reported P-k (last bin: 0)
        for k in range(p + 1):
            cm[i, p - k if k < p else 0] += mass[k]
    return cm


def build_latency(technology, voltage, block_size, precision, spread):
    """(mu, sigma, match timeout) of the default latency shape at ``spread``."""
    t1 = _T1_NS[technology][round(voltage, 2)] * (0.7 + 0.3 * block_size / 15.0)
    if precision >= 2:
        q = 0.5
        span = 0.5 * t1
        g1 = span * (1 - q) / (1 - q ** (precision - 1))
        gaps = g1 * q ** np.arange(precision - 1)
        mu = t1 - np.concatenate([[0.0], np.cumsum(gaps)])
        local = np.concatenate([gaps, [gaps[-1] * q]])
    else:
        mu = np.array([t1])
        local = np.array([0.25 * t1])
    sigma = spread * local * (1.0 + 0.08 * np.arange(precision))
    timeout = t1 + max(4.0 * float(sigma[0]), 0.5 * float(local[0]))
    return mu, sigma, timeout


def calibrated_spread(technology, voltage, block_size, precision):
    """The sigma scale whose confusion matrix peaks at the voltage's target."""
    target = _MAX_ERROR_TARGET[technology][round(voltage, 2)]
    lo, hi = 1e-8, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cm = confusion_loop(*build_latency(technology, voltage, block_size, precision, mid))
        if float(np.max(1.0 - np.diag(cm))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
