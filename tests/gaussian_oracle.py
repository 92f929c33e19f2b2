"""Per-element Gaussian replica sampling, the reference for the noise sampler.

``explorer.evaluate`` draws reports from per-pair distance histograms and a
median-of-r confusion matrix, and per-query latencies from one order
statistic per true distance. This module keeps the direct simulation those
shortcuts must match in distribution: every block of every class is read
``replicas`` times with its own Gaussian latency, decoded with the midpoint
rule of the latency model's thresholds; the report is the median of the
reads and a query waits for the slowest read.
"""

import numpy as np
from distance_oracle import block_distances
from packing import unpack


def report_from_latency(lm, t):
    """Midpoint decision rule: the distance whose latency interval holds t."""
    return lm.precision - np.searchsorted(lm.thresholds_ns, t)


def sample(lm, true_h, rng):
    """Reported distances and latencies for an int array of true distances.

    Draws one Gaussian latency per element (one ``rng.normal`` call) and
    decodes it with the midpoint rule. Distance 0 never discharges the match
    line: its latency is the sensing timeout and it always reads 0.
    """
    true_h = np.asarray(true_h)
    mu_full = np.concatenate([[lm.match_timeout_ns], lm.mu_ns])
    sigma_full = np.concatenate([[0.0], lm.sigma_ns])
    latency = rng.normal(mu_full[true_h], sigma_full[true_h])
    reported = report_from_latency(lm, latency).astype(np.int16)
    reported[true_h == 0] = 0
    return reported, latency


def sample_replicas(lm, true_h, rng, replicas=1):
    """Median report and slowest latency of ``replicas`` plain reads, drawn
    in order with one ``sample`` call each."""
    if replicas < 1 or replicas % 2 == 0:
        raise ValueError(f"replica count must be odd and >= 1, got {replicas}")
    draws = [sample(lm, true_h, rng) for _ in range(replicas)]
    reported = np.median([d for d, _ in draws], axis=0).astype(np.int16)
    latency = np.max([t for _, t in draws], axis=0)
    return reported, latency


def evaluate_trials(am, queries, labels, cfg, entry, replicas, trials, seed):
    """Per-trial accuracy, energy in pJ per query and latency in ns per query
    under the hardware entry ``entry``, one query at a time."""
    lm = entry.with_precision(cfg.precision)
    true = block_distances(unpack(queries, cfg.dimension), unpack(am.class_matrix, cfg.dimension),
                           cfg)
    label_idx = np.array([am.labels.index(label) for label in labels])
    rng = np.random.default_rng(seed)
    out = np.empty((trials, 3))
    for trial in range(trials):
        reported, latency = sample_replicas(lm, true, rng, replicas)
        preds = np.argmin(reported.sum(axis=2, dtype=np.int64), axis=1)
        out[trial] = (
            np.mean(preds == label_idx),
            entry.energy_fj[reported].sum() / 1000.0 / len(queries),
            latency.reshape(len(queries), -1).max(axis=1).mean(),
        )
    return out
