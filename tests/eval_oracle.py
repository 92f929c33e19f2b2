"""eval's point computed directly, the reference for eval's run through ``sweep``.

``cli.cmd_eval`` sets up a plan of one point with ``explorer.plan_eval`` and
runs it with ``explorer.sweep``, which takes the loss baseline and the pair
histogram once for every point of a plan and builds the ideal point from
the baseline. This module keeps the computation that path must reproduce
byte for byte: the ideal point built by hand from ``ideal_accuracy``, and a
blocked point from its own geometry, its table at the point's precision and
one ``evaluate`` call with eval's seed as given, which takes its baseline and
its histogram itself.
"""

from hdtcam.am import BlockConfig
from hdtcam.explorer import DesignPoint, evaluate, ideal_accuracy
from hdtcam.hwmodel import MAX_PRECISION, default_catalog


def eval_point(memory, queries, labels, technology=None, voltage=0.7, block_size=None,
               precision=None, replicas=1, trials=None, seed=0):
    """The point ``hdtcam eval`` reports under these settings, each defaulted
    as the CLI defaults it; ``None`` is a setting not given."""
    d = memory.dimension
    if technology is None and block_size is None:
        accuracy = ideal_accuracy(memory, queries, labels)
        return DesignPoint(technology="", voltage=0.0, block_size=d, precision=d, dimension=d,
                           replicas=1, trials=1, accuracy_mean=accuracy, accuracy_std=0.0,
                           accuracy_loss=0.0, energy_pj=0.0, latency_ns=0.0)
    block_size = 15 if block_size is None else block_size
    hw = None if technology is None else default_catalog().get(technology, voltage, block_size)
    if precision is None:
        precision = hw.precision if hw else min(block_size, MAX_PRECISION)
    if trials is None:
        trials = 1 if hw is None else 10
    return evaluate(memory, queries, labels, BlockConfig(d, block_size, precision),
                    hw=hw and hw.with_precision(precision), replicas=replicas, trials=trials,
                    seed=seed)
