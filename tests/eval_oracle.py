"""eval's point computed directly, the reference for eval's run through ``sweep``.

``cli.cmd_eval`` sets up a plan of one point with ``explorer.plan_eval``: the
ideal point, or else the one-point sweep of its settings, planned by
``explorer.plan_sweep`` without a table (the technology ``none``) or under
one. It runs that plan with ``explorer.sweep``, which takes the loss
baseline, the label index and the pair histogram once for every point of a
plan, reads a point without a table exactly and one with a table through
``evaluate``, and builds every point. This module keeps the computation that
path must reproduce byte for byte: the ideal point built by hand from
``ideal_accuracy``, and a blocked point from its own geometry and a pair
histogram clamped at its precision, read without a table as the argmin of
each query's clamped totals, with no trial run and r = 1, and under its table
at the point's precision by one ``evaluate`` call with the seed a sweep
derives for the point from eval's seed and its configuration key.
"""

import numpy as np

from hdtcam.am import BlockConfig, distance_histogram
from hdtcam.explorer import DesignPoint, config_key, derive_point_seed, evaluate, ideal_accuracy
from hdtcam.hwmodel import MAX_PRECISION, default_catalog


def blocked_point(memory, queries, labels, cfg, hw=None, replicas=1, trials=10, seed=0):
    """The point of the geometry ``cfg`` under the table ``hw`` at its
    precision: ``evaluate`` on the pair histogram clamped at P, or without a
    table the exact read, the accuracy of each query's argmin over its clamped
    totals, with no SD, energy or latency; the loss taken against the ideal
    accuracy, the technology and voltage read from the table."""
    hist = distance_histogram(queries, memory.class_matrix, cfg.dimension, cfg.block_size,
                              cfg.precision)
    label_idx = memory.class_index(labels)
    if hw is None:
        totals = hist @ np.arange(cfg.precision + 1)
        mean = float(np.mean(np.argmin(totals, axis=1) == label_idx))
        std = energy = latency = 0.0
    else:
        mean, std, energy, latency = evaluate(hist, label_idx, hw, replicas, trials, seed,
                                              am=memory, queries=queries, cfg=cfg)
    label = (hw.technology, hw.voltage) if hw else ("", 0.0)
    return DesignPoint(*label, cfg.block_size, cfg.precision, cfg.dimension, replicas, trials,
                       mean, std, ideal_accuracy(memory, queries, labels) - mean, energy,
                       latency)


def eval_point(memory, queries, labels, technology=None, voltage=0.7, block_size=None,
               precision=None, replicas=1, trials=None, seed=0):
    """The point ``hdtcam eval`` reports under these settings, each defaulted
    as the CLI defaults it; ``None`` is a setting not given, and the
    technology ``none`` is no table, as ``None`` is."""
    d = memory.dimension
    technology = None if technology == "none" else technology
    if technology is None and block_size is None:
        accuracy = ideal_accuracy(memory, queries, labels)
        return DesignPoint(technology="", voltage=0.0, block_size=d, precision=d, dimension=d,
                           replicas=1, trials=1, accuracy_mean=accuracy, accuracy_std=0.0,
                           accuracy_loss=0.0, energy_pj=0.0, latency_ns=0.0)
    block_size = 15 if block_size is None else block_size
    hw = None if technology is None else default_catalog().get(technology, voltage, block_size)
    if precision is None:
        precision = hw.precision if hw else min(block_size, MAX_PRECISION)
    if hw is None:  # no trial runs, and r means nothing without a table
        replicas, trials = 1, 1
    elif trials is None:
        trials = 10
    if hw is not None:
        seed = derive_point_seed(seed, config_key(hw.technology, hw.voltage, block_size,
                                                  precision, d, replicas))
    return blocked_point(memory, queries, labels, BlockConfig(d, block_size, precision),
                         hw and hw.with_precision(precision), replicas, trials, seed)
