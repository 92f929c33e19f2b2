"""Hardware model: decision rule, confusion matrices, energy, area, table I/O."""

import dataclasses
import hashlib
import json
import math
import statistics
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from calibration_oracle import (
    build_latency,
    calibrated_spread,
    confusion_loop,
    max_error_probability,
)
from criterion_helpers import rram_shift
from gaussian_oracle import report_from_latency, sample, sample_replicas
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtcam import explorer, hwmodel
from hdtcam.errors import ConfigError, FormatError
from hdtcam.hwmodel import (
    HwEntry,
    confusion_from_latency,
    default_block_energy_fj,
    default_catalog,
    error_probability,
    load_hw_tables,
    energy_pj,
    median_confusion,
    save_hw_tables,
)


def _table(technology, voltage, block_size, precision, mu, sigma, timeout):
    """A hardware table of the given latency model at a flat 1 fJ per comparison."""
    return HwEntry(technology, voltage, block_size, precision, mu, sigma, timeout,
                   np.ones(precision + 1))


def _tight_model(precision=4, sigma=1e-9):
    """Near-deterministic latency model: reports always equal the truth."""
    mu = np.linspace(2.0, 1.0, precision)
    return _table("sram", 0.7, 8, precision, mu, np.full(precision, sigma), 3.0)


# ---------------------------------------------------------------------------
# Table structure


def test_latency_model_validation():
    mu = np.array([2.0, 1.5, 1.0])
    sig = np.array([0.1, 0.1, 0.1])
    with pytest.raises(ConfigError, match="decreasing"):
        _table("sram", 0.7, 8, 3, mu[::-1], sig, 3.0)
    with pytest.raises(ConfigError, match="positive"):
        _table("sram", 0.7, 8, 3, mu, np.array([0.1, 0.0, 0.1]), 3.0)
    with pytest.raises(ConfigError, match="timeout"):
        _table("sram", 0.7, 8, 3, mu, sig, 1.9)
    with pytest.raises(ConfigError, match="precision"):
        _table("sram", 0.7, 8, 9, mu, sig, 3.0)
    with pytest.raises(ConfigError, match="exactly"):
        _table("sram", 0.7, 8, 2, mu, sig, 3.0)
    # finite latencies whose midpoint overflows, and midpoints that round together
    with pytest.raises(ConfigError, match="strictly ascending"):
        _table("sram", 0.7, 3, 2, [1.6e308, 1.5e308], [1, 1], 1.7e308)
    tiny = np.array([3, 2, 1]) * 5e-324
    with pytest.raises(ConfigError, match="strictly ascending"):
        _table("sram", 0.7, 8, 3, tiny, sig, 1.0)


def test_energy_validation():
    """A table's energy row lists one positive, finite energy per reported
    distance 0..P, and every change of precision cuts it with mu and sigma."""
    mu, sig = np.array([2.0, 1.5, 1.0]), np.array([0.1, 0.1, 0.1])
    with pytest.raises(ConfigError, match="length precision"):
        HwEntry("sram", 0.7, 8, 3, mu, sig, 3.0, np.ones(3))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            HwEntry("sram", 0.7, 8, 3, mu, sig, 3.0, [1.0, 1.0, bad, 1.0])
    with pytest.raises(ConfigError, match="technology"):
        HwEntry("rram", 0.7, 8, 3, mu, sig, 3.0, np.ones(4))
    low = HwEntry("sram", 0.7, 8, 3, mu, sig, 3.0, [1.0, 2.0, 3.0, 4.0]).with_precision(2)
    assert low.energy_fj.tolist() == [1.0, 2.0, 3.0]


def test_thresholds_ascending_and_decision_rule():
    lm = _tight_model()
    t = lm.thresholds_ns
    assert np.all(np.diff(t) > 0)
    # nominal latencies decode back to their own distance
    rep = report_from_latency(lm, lm.mu_ns)
    assert rep.tolist() == [1, 2, 3, 4]
    # beyond the timeout reads as a full match
    assert report_from_latency(lm, np.array([lm.match_timeout_ns + 1.0])).tolist() == [0]
    # implausibly fast discharge saturates at P
    assert report_from_latency(lm, np.array([0.0])).tolist() == [4]


def test_degenerate_sigma_reports_identity(rng):
    lm = _tight_model()
    h = rng.integers(0, 5, size=1000)
    assert np.array_equal(sample(lm, h, rng)[0], h)


def test_zero_distance_is_error_free():
    lm = default_catalog().get("sram", 0.7, 15)
    rng = np.random.default_rng(0)
    rep, _ = sample(lm, np.zeros(10000, dtype=int), rng)
    assert np.all(rep == 0)


def test_with_precision_restricts():
    lm = default_catalog().get("sram", 0.7, 15)
    low = lm.with_precision(3)
    assert low.precision == 3
    assert np.array_equal(low.mu_ns, lm.mu_ns[:3])
    with pytest.raises(ConfigError):
        low.with_precision(5)


# ---------------------------------------------------------------------------
# Confusion matrix


def test_confusion_rows_sum_to_one():
    lm = default_catalog().get("fefinfet", 0.5, 15)
    cm = confusion_from_latency(lm)
    assert np.abs(cm.sum(axis=1) - 1.0).max() < 1e-9
    assert cm[0, 0] == 1.0


def test_confusion_identity_when_sigma_tiny():
    cm = confusion_from_latency(_tight_model())
    assert np.allclose(cm, np.eye(5))
    assert max_error_probability(cm) < 1e-12


def test_confusion_matches_monte_carlo_single_entry():
    lm = default_catalog().get("sram", 0.7, 15)
    cm = confusion_from_latency(lm)
    rng = np.random.default_rng(42)
    n = 200_000
    for h in (1, 4, 7):
        rep, _ = sample(lm, np.full(n, h), rng)
        freq = np.bincount(rep, minlength=8) / n
        assert np.abs(freq - cm[h]).max() < 0.005


def test_error_probability_helpers():
    cm = np.array([[1.0, 0.0], [0.3, 0.7]])
    assert error_probability(cm, 1) == pytest.approx(0.3)
    assert max_error_probability(cm) == pytest.approx(0.3)


def test_error_profile_dips_at_saturated_distance():
    """h=P errors only one way (upward is clamped), so its rate drops."""
    lm = default_catalog().get("sram", 0.7, 15)
    cm = confusion_from_latency(lm)
    errs = [error_probability(cm, h) for h in range(1, 8)]
    assert errs[-1] < errs[-2]
    assert all(e > 0 for e in errs)


def _assert_loop_equal(lm):
    got = confusion_from_latency(lm)
    want = confusion_loop(lm.mu_ns, lm.sigma_ns, lm.match_timeout_ns)
    assert got.tobytes() == want.tobytes()


def test_confusion_matches_cell_loop_on_default_entries():
    """The array kernel fills every cell with the float the per-cell loop
    adds to it, bit for bit, at the table precision and below."""
    for entry in default_catalog().select():
        for precision in range(1, entry.precision + 1):
            _assert_loop_equal(entry.with_precision(precision))


@pytest.mark.parametrize("precision", range(1, 8))
def test_confusion_matches_cell_loop_on_random_models(precision):
    rng = np.random.default_rng(precision)
    for _ in range(25):
        mu = np.cumsum(rng.uniform(1e-3, 1.0, precision))[::-1]
        sigma = rng.uniform(1e-4, 2.0, precision)
        timeout = mu[0] + rng.uniform(1e-3, 3.0)
        _assert_loop_equal(_table("sram", 0.7, 8, precision, mu, sigma, timeout))


@pytest.mark.parametrize("precision", range(1, 8))
def test_diagonal_reader_matches_full_confusion(precision):
    """The calibration's diagonal reader gives the largest misread
    probability of the full confusion stack, compared with ==; at P = 1 the
    one diagonal bin has no lower CDF value."""
    rng = np.random.default_rng(precision)
    models = []
    for _ in range(25):
        mu = np.cumsum(rng.uniform(1e-3, 1.0, precision))[::-1]
        sigma = rng.uniform(1e-4, 2.0, precision)
        models.append((mu, sigma, mu[0] + rng.uniform(1e-3, 3.0)))
    mu, sigma, timeout = (np.array(column) for column in zip(*models))
    want = max_error_probability(hwmodel._confusion(mu, sigma, timeout))
    assert hwmodel._max_misread(mu, sigma, timeout).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Calibration


GRID_KEYS = [(tech, v, n, min(hwmodel.MAX_PRECISION, n)) for tech in hwmodel.TECHNOLOGIES
             for v in hwmodel.VOLTAGE_GRID for n in range(2, 26)]


def test_calibration_matches_scalar_bisection():
    """One batched bisection over all 2 x 6 x 24 grid keys gives each table
    the mu, sigma and timeout of one scalar bisection per key, compared as
    bytes, in key order; the 2 x 6 x 12 catalog tables are these tables."""
    tables = hwmodel._default_tables(GRID_KEYS)
    assert [(t.technology, t.voltage, t.block_size, t.precision) for t in tables] == GRID_KEYS
    catalog = default_catalog()
    compared = 0
    for key, table in zip(GRID_KEYS, tables):
        mu, sigma, timeout = build_latency(*key, calibrated_spread(*key))
        assert table.mu_ns.tobytes() == mu.tobytes(), key
        assert table.sigma_ns.tobytes() == sigma.tobytes(), key
        assert table.match_timeout_ns.hex() == timeout.hex(), key
        if key[2] in hwmodel.DEFAULT_BLOCK_SIZES:
            entry = catalog.get(*key[:3])
            assert entry.mu_ns.tobytes() == mu.tobytes(), key
            assert entry.sigma_ns.tobytes() == sigma.tobytes(), key
            assert entry.match_timeout_ns.hex() == timeout.hex(), key
            compared += 1
    assert compared == len(catalog) == 144


def test_default_catalog_is_built_once_and_read_only():
    """The default catalog is shared by every caller in a process, so no
    caller can change a table in place, nor a table built from its own array."""
    cat = default_catalog()
    assert default_catalog() is cat
    entry = cat.get("sram", 0.7, 15)
    for array in (entry.mu_ns, entry.sigma_ns, entry.energy_fj,
                  entry.with_precision(3).mu_ns, entry.with_precision(3).energy_fj):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    mu = np.linspace(2.0, 1.0, 4)
    table = _table("sram", 0.7, 8, 4, mu, np.full(4, 0.1), 3.0)
    mu[0] = 5.0
    assert table.mu_ns[0] == 2.0


def test_default_catalog_builds_only_what_is_read(monkeypatch):
    """A fresh default catalog counts its grid keys without calibrating them,
    and each lookup calibrates its missing tables in one call: one ``get`` one
    key, a sweep's set-up all of its keys, a filtered ``select`` its matches,
    an unfiltered ``select`` the rest. Every table has the bytes of an eager build."""
    built = []
    real = hwmodel._default_tables

    def spy(keys):
        built.append(list(keys))
        return real(keys)

    monkeypatch.setattr(hwmodel, "_default_tables", spy)
    cat = default_catalog.__wrapped__()
    assert len(cat) == 144 and built == []
    entry = cat.get("sram", 0.7, 15)
    assert built == [[("sram", 0.7, 15, 7)]]
    assert cat.get("sram", 0.701, 15) is entry and len(built) == 1
    space = explorer.SweepSpace(technologies=("sram", "fefinfet"), voltages=(0.5, 0.7),
                                block_sizes=(3, 15), precisions=(3, 7), dimensions=(60,),
                                replicas=(1, 3))
    explorer.plan_sweep(space, cat)
    assert built[1:] == [[(tech, v, n, min(7, n)) for tech in ("sram", "fefinfet")
                          for v in (0.5, 0.7) for n in (3, 15)
                          if (tech, v, n) != ("sram", 0.7, 15)]]
    assert [e.block_size for e in cat.select("fefinfet", 1.0)] == list(hwmodel.DEFAULT_BLOCK_SIZES)
    assert built[2] == [("fefinfet", 1.0, n, min(7, n)) for n in hwmodel.DEFAULT_BLOCK_SIZES]
    tables = cat.select()
    assert len(built) == 4 and len(built[3]) == 144 - 1 - 7 - 12
    assert sorted(k for keys in built for k in keys) == sorted(
        (e.technology, e.voltage, e.block_size, e.precision) for e in tables)
    cat.select()
    assert len(built) == 4
    eager = real([(e.technology, e.voltage, e.block_size, e.precision) for e in tables])
    for got, want in zip(tables, eager):
        assert got.mu_ns.tobytes() == want.mu_ns.tobytes()
        assert got.sigma_ns.tobytes() == want.sigma_ns.tobytes()
        assert got.match_timeout_ns.hex() == want.match_timeout_ns.hex()
        assert got.energy_fj.tobytes() == want.energy_fj.tobytes()


def test_default_catalog_builds_each_key_once_across_threads(monkeypatch):
    """Threads sharing a fresh default catalog, switching as often as the
    interpreter allows, build each key they read once and all read one table."""
    built = []
    real = hwmodel._default_tables

    def spy(keys):
        built.extend(keys)
        return real(keys)

    monkeypatch.setattr(hwmodel, "_default_tables", spy)
    cat = default_catalog.__wrapped__()
    keys = [(tech, v, n) for tech in hwmodel.TECHNOLOGIES for v in (0.5, 0.7) for n in (3, 7, 15)]
    results = [None] * 8

    def read(i):
        results[i] = cat.get_many(keys[i % 3:] + keys[:i % 3])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(k[:3] for k in built) == sorted(keys)
    tables = {(e.technology, e.voltage, e.block_size): e for e in results[0]}
    assert all(e is tables[e.technology, e.voltage, e.block_size] for r in results for e in r)


def test_default_tables_export_unchanged(tmp_path):
    path = tmp_path / "tables.json"
    save_hw_tables(path, default_catalog())
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "c6527c43fc63f51a8d9bdb05d2a1090fb8c40547d0788eedf086c98bf6f874cc")


# ---------------------------------------------------------------------------
# Replicas and RRAM shift


def test_sample_replicas_validation():
    lm = _tight_model()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_replicas(lm, np.array([1]), rng, replicas=2)
    with pytest.raises(ValueError):
        median_confusion(confusion_from_latency(lm), 2)
    reported, latency = sample_replicas(lm, np.array([3, 0]), rng, replicas=5)
    assert reported.tolist() == [3, 0]
    assert latency[0] == pytest.approx(lm.mu_ns[2])
    assert latency[1] == lm.match_timeout_ns
    # the same through the median transform and the slowest-read draw
    assert median_confusion(confusion_from_latency(lm), 5)[[3, 0]].argmax(axis=1).tolist() == [3, 0]
    slowest = lm.slowest_latency(np.array([[0, 0, 0, 5, 0], [5, 0, 0, 0, 0]]), rng)
    assert slowest[0] == pytest.approx(lm.mu_ns[2])
    assert slowest[1] == lm.match_timeout_ns


def test_replica_voting_reduces_error():
    lm = default_catalog().get("fefinfet", 0.7, 15)
    n = 50_000
    h = 3
    rng = np.random.default_rng(7)
    single, _ = sample_replicas(lm, np.full(n, h), rng, replicas=1)
    voted, _ = sample_replicas(lm, np.full(n, h), rng, replicas=7)
    err1 = np.mean(single != h)
    err7 = np.mean(voted != h)
    assert err7 < err1
    cm = confusion_from_latency(lm)
    errs = [error_probability(median_confusion(cm, r), h) for r in (1, 3, 7)]
    assert errs[2] < errs[1] < errs[0]


def test_replica_model_r1_identical_to_plain():
    """r = 1 is one plain draw; r replicas are r plain draws in order,
    reduced to their median report and slowest latency."""
    lm = default_catalog().get("sram", 0.5, 15)
    h = np.random.default_rng(0).integers(0, 8, size=(40, 3, 11))
    a, _ = sample_replicas(lm, h, np.random.default_rng(5))
    b, _ = sample(lm, h, np.random.default_rng(5))
    assert np.array_equal(a, b)
    reported, latency = sample_replicas(lm, h, np.random.default_rng(6), replicas=3)
    rng = np.random.default_rng(6)
    draws = [sample(lm, h, rng) for _ in range(3)]
    assert np.array_equal(reported, np.median([d for d, _ in draws], axis=0))
    assert np.array_equal(latency, np.max([t for _, t in draws], axis=0))
    cm = confusion_from_latency(lm)
    assert np.array_equal(median_confusion(cm, 1), cm)


@pytest.mark.parametrize("technology", ["sram", "fefinfet"])
@pytest.mark.parametrize("replicas", [3, 7])
def test_median_confusion_matches_monte_carlo(technology, replicas):
    """Each row against 200 000 medians of ``replicas`` Gaussian reads, with
    criterion 06's binomial bounds: every cell inside the family-wise bound,
    >= 99.5 % inside 3 sigma; rows sum to 1."""
    lm = default_catalog().get(technology, 0.7, 15)
    cm = median_confusion(confusion_from_latency(lm), replicas)
    assert np.abs(cm.sum(axis=1) - 1.0).max() < 1e-12
    n = 200_000
    rng = np.random.default_rng(replicas)
    z = []
    for h in range(lm.precision + 1):
        reported, _ = sample_replicas(lm, np.full(n, h), rng, replicas)
        freq = np.bincount(reported, minlength=lm.precision + 1) / n
        sigma = np.sqrt(cm[h] * (1 - cm[h]) / n) + 2.0 / n
        z.append(np.abs(freq - cm[h]) / sigma)
    z = np.concatenate(z)
    assert z.max() <= 5.07
    assert np.mean(z <= 3.0) >= 0.995


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("reads", [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 60],
    [0, 3000, 0, 0, 0, 0, 0, 0],
    [0, 5, 0, 40, 0, 0, 0, 900],
    [1, 0, 2, 0, 0, 0, 0, 0],
    [2, 30, 0, 0, 0, 0, 0, 0],
], ids=["m1", "m2", "m60", "m3000", "mixed", "zero-block", "zero-block-m30"])
def test_slowest_latency_matches_monte_carlo(reads):
    """The order-statistic draw against the slowest of the same reads drawn
    one by one: two-sample KS at the 0.1 % level."""
    lm = default_catalog().get("fefinfet", 0.7, 15)
    reads = np.array(reads)
    samples = 4000 if reads.sum() > 100 else 20_000
    true_h = np.repeat(np.arange(lm.precision + 1), reads)
    rng = np.random.default_rng(int(reads.sum()))
    _, latency = sample(lm, np.broadcast_to(true_h, (samples, true_h.size)), rng)
    monte_carlo = latency.max(axis=1)
    drawn = lm.slowest_latency(np.broadcast_to(reads, (samples, reads.size)), rng)
    assert _ks_distance(drawn, monte_carlo) <= 1.949 * np.sqrt(2.0 / samples)
    if reads[0]:
        assert drawn.min() >= lm.match_timeout_ns


class _EdgeRng:
    """Stands in for a Generator whose uniforms all take one value."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


@pytest.mark.parametrize("u", [
    0.0, np.finfo(float).tiny,  # tail (m = 1) clipped to the float below 1
    1.0,  # tail 0, clipped to tiny
    np.nextafter(1.0, 0.0),  # tail 1e-16 (m = 1) to 1e-25 (m = 10**9)
    # tails (m = 1) on both sides of |p - 0.5| = 0.425
    0.075 - 1e-9, 0.075 + 1e-9, 0.925 - 1e-9, 0.925 + 1e-9,
    # tails on both sides of sqrt(-log(min(p, 1 - p))) = 5: above 0.5 (m = 1), below (m = 10**9)
    math.exp(-25) * (1 - 1e-6), math.exp(-25) * (1 + 1e-6),
    math.exp(-1e9 * math.exp(-25) * (1 - 1e-6)), math.exp(-1e9 * math.exp(-25) * (1 + 1e-6)),
])
def test_slowest_latency_uniform_at_range_ends(u):
    """At uniforms that put the quantile at the clip ends and on both sides
    of each of its branch edges, the slowest latency is mu_h + sigma_h *
    -NormalDist().inv_cdf(tail) with tail = 1 - u^(1/m) as the method takes
    it, and at least the timeout in a row with a distance-0 read."""
    lm = default_catalog().get("sram", 0.7, 15)
    reads = np.array([[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 10**9],
                      [1, 0, 2, 0, 0, 0, 0, 0]])
    slowest = lm.slowest_latency(reads, _EdgeRng(u))
    m = reads[:, 1:].max(axis=1)
    h = reads[:, 1:].argmax(axis=1)
    with np.errstate(divide="ignore"):
        tail = np.clip(-np.expm1(np.log(np.full(m.shape, u)) / m),
                       np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    want = [lm.mu_ns[j] + lm.sigma_ns[j] * -statistics.NormalDist().inv_cdf(t)
            for j, t in zip(h.tolist(), tail.tolist())]
    want[2] = max(want[2], lm.match_timeout_ns)
    assert slowest.tolist() == want


def test_rram_shift_examples():
    assert rram_shift(4).tolist() == [1, 2, 3, 4, 4]


# ---------------------------------------------------------------------------
# Energy


def test_energy_anchors_exact():
    assert default_block_energy_fj("sram", 0.5, 15) == pytest.approx(0.73, rel=1e-12)
    assert default_block_energy_fj("sram", 1.0, 15) == pytest.approx(4.53, rel=1e-12)


def test_energy_monotone_in_voltage_and_block_size():
    for tech in hwmodel.TECHNOLOGIES:
        e_v = [default_block_energy_fj(tech, v, 15) for v in hwmodel.VOLTAGE_GRID]
        assert all(a < b for a, b in zip(e_v, e_v[1:]))
        e_n = [default_block_energy_fj(tech, 0.7, n) for n in (2, 7, 15, 25)]
        assert all(a < b for a, b in zip(e_n, e_n[1:]))


def test_fefet_energy_premium_at_low_voltage():
    assert (default_block_energy_fj("fefinfet", 0.5, 15)
            == pytest.approx(1.19 * 0.73, rel=1e-12))
    assert (default_block_energy_fj("fefinfet", 0.7, 15)
            == pytest.approx(default_block_energy_fj("sram", 0.7, 15)))


def test_block_and_query_energy():
    e = np.array([1.0, 2.0, 3.0])
    assert energy_pj(e, np.bincount([0, 1, 2, 2], minlength=3)) == pytest.approx(0.009)


# ---------------------------------------------------------------------------
# Catalog and table files


def test_catalog_lookup_and_miss():
    cat = default_catalog()
    entry = cat.get("sram", 0.7, 15)
    assert entry.block_size == 15
    assert ("sram", 0.7, 15) in [(e.technology, e.voltage, e.block_size) for e in cat.select()]
    with pytest.raises(ConfigError, match="no entry"):
        cat.get("sram", 0.7, 9)


def _default_tables(*block_sizes):
    """The default catalog's tables of the given block sizes."""
    return hwmodel.Catalog(e for e in default_catalog().select() if e.block_size in block_sizes)


def test_table_file_round_trip(tmp_path):
    cat = _default_tables(7, 15)
    path = tmp_path / "tables.json"
    save_hw_tables(path, cat)
    got = load_hw_tables(path)
    assert len(got) == len(cat)
    for a in cat.select():
        b = got.get(a.technology, a.voltage, a.block_size)
        assert np.allclose(a.mu_ns, b.mu_ns)
        assert np.allclose(a.sigma_ns, b.sigma_ns)
        assert a.match_timeout_ns == pytest.approx(b.match_timeout_ns)
        assert np.allclose(a.energy_fj, b.energy_fj)


def test_table_file_rejects_invariant_violations(tmp_path):
    import json

    cat = _default_tables(7)
    path = tmp_path / "tables.json"
    save_hw_tables(path, cat)
    doc = json.loads(path.read_text())
    # make mu(3) > mu(2): latencies no longer decrease with distance
    doc["tables"][0]["mu_ns"][2] = doc["tables"][0]["mu_ns"][1] + 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="decreasing"):
        load_hw_tables(path)


def test_table_file_missing_key(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text('{"tables": [{"technology": "sram"}]}')
    with pytest.raises(ConfigError, match="missing key"):
        load_hw_tables(path)
    path.write_text('{"entries": []}')
    with pytest.raises(ConfigError, match="array of table objects"):
        load_hw_tables(path)
    path.write_text('{"tables": [7]}')
    with pytest.raises(ConfigError, match="table object"):
        load_hw_tables(path)


def test_table_file_off_grid_voltage_loads(tmp_path):
    """Measured tables may sit between the default grid's voltages."""
    import json

    path = tmp_path / "tables.json"
    save_hw_tables(path, _default_tables(7))
    doc = json.loads(path.read_text())
    doc["tables"] = [dict(doc["tables"][0], technology="sram", voltage_V=0.75)]
    path.write_text(json.dumps(doc))
    entry = load_hw_tables(path).get("sram", 0.75, 7)
    cm = confusion_from_latency(entry)
    assert entry.voltage == 0.75
    assert np.abs(cm.sum(axis=1) - 1.0).max() < 1e-9
    doc["tables"][0]["technology"] = "rram"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="technology"):
        load_hw_tables(path)


def test_table_file_scalar_energy_expands(tmp_path):
    import json

    cat = _default_tables(7)
    path = tmp_path / "tables.json"
    save_hw_tables(path, cat)
    doc = json.loads(path.read_text())
    doc["tables"][0]["energy_fJ"] = 2.5
    path.write_text(json.dumps(doc))
    got = load_hw_tables(path)
    entry = got.select()[0]
    assert np.all(entry.energy_fj == 2.5)
    assert entry.energy_fj.shape == (entry.precision + 1,)


def test_hw_entry_temperature_round_trip(tmp_path):
    entry = default_catalog().get("sram", 0.9, 7)
    warm = replace(entry, temperature_c=85.0)
    cat = hwmodel.Catalog([warm])
    path = tmp_path / "t.json"
    save_hw_tables(path, cat)
    got = load_hw_tables(path).get("sram", 0.9, 7)
    assert got.temperature_c == 85.0


def test_table_fields_declare_every_hw_entry_field():
    """The table format names each HwEntry field once, in field order, so a
    new field cannot be left out of the file."""
    assert [field for field, _, _ in hwmodel.TABLE_FIELDS] == [
        f.name for f in dataclasses.fields(HwEntry)]


def _assert_round_trips(entry):
    """A table's JSON object, written out and read back, is the same table."""
    doc = json.loads(json.dumps(hwmodel._entry_to_doc(entry)))
    again = hwmodel._entry_from_doc(doc, "again")
    for f in dataclasses.fields(HwEntry):
        a, b = getattr(entry, f.name), getattr(again, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


# ---------------------------------------------------------------------------
# Table loader fuzzing


_REQUIRED_KEYS = ["technology", "voltage_V", "block_size", "precision",
                  "mu_ns", "sigma_ns", "match_timeout_ns", "energy_fJ"]
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def table_docs(tmp_path_factory):
    """Exported table objects at precisions 3 and 7, the precision-7 one at 85 C."""
    path = tmp_path_factory.mktemp("tables") / "tables.json"
    warm = replace(default_catalog().get("fefinfet", 0.9, 15), temperature_c=85.0)
    save_hw_tables(path, hwmodel.Catalog([default_catalog().get("sram", 0.7, 3), warm]))
    return json.loads(path.read_text())["tables"]


def _mutate(doc, op, data):
    """Apply one mutation; list edits skip a list an earlier one replaced."""
    key = data.draw(st.sampled_from(_REQUIRED_KEYS + ["temperature_C"]))
    if op == "drop":
        doc.pop(key, None)
    elif op == "extra":
        doc[data.draw(st.text(min_size=1, max_size=6))] = data.draw(_JSON)
    elif op == "retype":
        doc[key] = data.draw(_JSON)
    elif op == "non-finite":
        key = data.draw(st.sampled_from(_REQUIRED_KEYS[1:] + ["temperature_C"]))
        values = doc.get(key)
        if isinstance(values, list) and values:
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(_NON_FINITE)
        else:
            doc[key] = data.draw(_NON_FINITE)
    elif op == "mu-not-decreasing":
        mu = doc.get("mu_ns")
        if isinstance(mu, list) and len(mu) >= 2 and isinstance(mu[0], float):
            i = data.draw(st.integers(0, len(mu) - 2))
            mu[i + 1] = mu[i] + data.draw(st.floats(0.0, 1.0))
    elif op == "energy-length":
        length = data.draw(st.integers(0, 12).filter(lambda n: n != len(doc["sigma_ns"]) + 1)
                           if isinstance(doc.get("sigma_ns"), list) else st.integers(0, 12))
        doc["energy_fJ"] = data.draw(st.lists(st.floats(0.1, 10.0), min_size=length,
                                              max_size=length))


_OPS = ["drop", "extra", "retype", "non-finite", "mu-not-decreasing", "energy-length"]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def _is_numbers(value):
    return isinstance(value, list) and all(map(_is_number, value))


# The JSON type of each field a table object may hold; an int counts as a number.
_FIELD_TYPES = {
    "technology": lambda value: isinstance(value, str), "voltage_V": _is_number,
    "block_size": _is_int, "precision": _is_int, "mu_ns": _is_numbers, "sigma_ns": _is_numbers,
    "match_timeout_ns": _is_number, "temperature_C": _is_number,
    "energy_fJ": lambda value: _is_number(value) or _is_numbers(value),
}


def _wrong_type(doc):
    """Whether a table object holds a required or temperature_C field of
    another JSON type than the field's."""
    return any(key in doc and not has_type(doc[key]) for key, has_type in _FIELD_TYPES.items())


def _check_valid(catalog):
    """The invariants every loaded table promises, its JSON round trip included."""
    assert len(catalog) >= 1
    for entry in catalog.select():
        _assert_round_trips(entry)
        assert np.isfinite(entry.voltage) and entry.voltage > 0
        assert entry.temperature_c is None or -273.15 <= entry.temperature_c < np.inf
        assert np.all(np.isfinite(entry.mu_ns)) and np.all(np.isfinite(entry.sigma_ns))
        assert np.isfinite(entry.match_timeout_ns)
        assert np.all(np.diff(entry.mu_ns) < 0) and np.all(entry.sigma_ns > 0)
        assert entry.match_timeout_ns > entry.mu_ns[0]
        assert entry.energy_fj.shape == (entry.precision + 1,)
        assert np.all(np.isfinite(entry.energy_fj)) and np.all(entry.energy_fj > 0)
        assert np.abs(confusion_from_latency(entry).sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_hw_tables_fuzz(op, table_docs, tmp_path_factory, data):
    """Table files mutated by ``op`` and maybe one more mutation load into a
    valid catalog or fail with a config or format error, never with another
    exception, and never load with a field of another JSON type."""
    docs = [dict(doc, mu_ns=list(doc["mu_ns"]), sigma_ns=list(doc["sigma_ns"]),
                 energy_fJ=list(doc["energy_fJ"])) for doc in table_docs]
    for op in [op] + data.draw(st.lists(st.sampled_from(_OPS), max_size=1)):
        _mutate(docs[data.draw(st.integers(0, len(docs) - 1))], op, data)
    top = data.draw(st.sampled_from(["tables"] * 4 + ["list", "junk"]))
    doc = {"tables": docs} if top == "tables" else docs if top == "list" else data.draw(_JSON)
    path = tmp_path_factory.getbasetemp() / "fuzz_tables.json"
    path.write_text(json.dumps(doc))
    try:
        catalog = load_hw_tables(path)
    except (ConfigError, FormatError):
        return
    assert top == "junk" or not any(map(_wrong_type, docs)), f"loaded {docs}"
    _check_valid(catalog)
