"""Exact accuracy and energy of tiny design points, by enumeration; the
reference for the noise sampler.

``explorer.evaluate`` draws each trial's reports from per-pair distance
histograms and a median-of-r confusion matrix. This module reads the same
latency model without either shortcut: it decodes one read's Gaussian
latency with the midpoint rule, enumerates every replica read of a block to
get its median report, every report of a pair's blocks to get the pair's
total and energy, and every combination of a query's class totals to get
whether the query is right (ties go to the earliest class, as ``np.argmin``
does). Exact values and per-trial variances follow for cases of a few
queries, classes and blocks.
"""

import itertools
import math
import statistics

from packing import unpack


def read_pmf(hw, precision, h):
    """P(one read of true clamped distance ``h`` reports j), j = 0..P, under
    the table ``hw`` restricted to ``precision``. Distance 0 never discharges
    the match line and reads 0; distance h >= 1 has latency N(mu_h, sigma_h),
    and a latency above k of the P ascending bounds (the P - 1 midpoints of
    the nominal latencies and the match timeout) reports P - k."""
    if h == 0:
        return [1.0] + [0.0] * precision
    mu = [float(m) for m in hw.mu_ns[:precision]]
    bounds = sorted((a + b) / 2 for a, b in zip(mu, mu[1:])) + [float(hw.match_timeout_ns)]
    normal = statistics.NormalDist(mu[h - 1], float(hw.sigma_ns[h - 1]))
    cdf = [0.0] + [normal.cdf(t) for t in bounds] + [1.0]
    return [cdf[precision - j + 1] - cdf[precision - j] for j in range(precision + 1)]


def report_pmf(hw, precision, h, replicas):
    """P(the median of ``replicas`` independent reads reports j), from every
    combination of their reports."""
    single = read_pmf(hw, precision, h)
    pmf = [0.0] * len(single)
    for reads in itertools.product(range(len(single)), repeat=replicas):
        pmf[sorted(reads)[replicas // 2]] += math.prod(single[j] for j in reads)
    return pmf


def block_distances(query, row, block_size, precision):
    """The true distance of each block of a (query, class) pair, clamped at P;
    the last block is partial when N does not divide D."""
    return [min(precision, sum(int(a != b) for a, b in zip(query[s:s + block_size],
                                                           row[s:s + block_size])))
            for s in range(0, len(query), block_size)]


def pair_outcomes(hw, precision, replicas, distances):
    """{(total report, energy in fJ): probability} over every report of the
    pair's blocks."""
    pmfs = [report_pmf(hw, precision, h, replicas) for h in distances]
    energy = [float(e) for e in hw.energy_fj[:precision + 1]]
    out = {}
    for reports in itertools.product(range(precision + 1), repeat=len(pmfs)):
        key = (sum(reports), sum(energy[j] for j in reports))
        out[key] = out.get(key, 0.0) + math.prod(pmf[j] for pmf, j in zip(pmfs, reports))
    return out


def exact_point(memory, queries, labels, block_size, precision, hw, replicas):
    """(accuracy, per-trial accuracy variance, energy in pJ per query, its
    per-trial variance) of a point read under ``hw``, exact; the queries
    and the memory's classes are packed rows."""
    num_q = len(queries)
    truth = memory.class_index(labels)
    queries = unpack(queries, memory.dimension)
    accuracy = accuracy_var = energy = energy_var = 0.0
    for query, k in zip(queries, truth):
        totals = []
        for row in unpack(memory.class_matrix, memory.dimension):
            outcomes = pair_outcomes(hw, precision, replicas,
                                     block_distances(query, row, block_size, precision))
            mean = sum(p * e for (_, e), p in outcomes.items())
            energy += mean
            energy_var += sum(p * e * e for (_, e), p in outcomes.items()) - mean * mean
            total = {}
            for (t, _), p in outcomes.items():
                total[t] = total.get(t, 0.0) + p
            totals.append(total)
        right = 0.0
        for combo in itertools.product(*(total.items() for total in totals)):
            sums = [t for t, _ in combo]
            if sums.index(min(sums)) == k:
                right += math.prod(p for _, p in combo)
        accuracy += right
        accuracy_var += right * (1.0 - right)
    return (accuracy / num_q, accuracy_var / num_q ** 2,
            energy / 1000.0 / num_q, energy_var / (1000.0 * num_q) ** 2)
