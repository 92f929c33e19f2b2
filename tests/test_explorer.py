"""Explorer: sweeps, evaluation equivalences, Pareto front, serialization."""

import io
import math
from dataclasses import asdict, replace

import distance_oracle
import numpy as np
import pytest
from criterion_helpers import energy_savings, precision_rows
from enumeration_oracle import exact_point
from gaussian_oracle import evaluate_trials
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from packing import pack, packed_memory, unpack

from hdtcam import am as am_module
from hdtcam import explorer, hwmodel
from hdtcam.am import BlockConfig
from hdtcam.errors import ConfigError, DimensionMismatchError
from hdtcam.explorer import (
    CSV_COLUMNS,
    DesignPoint,
    SweepLog,
    SweepSpace,
    derive_point_seed,
    evaluate,
    flag_pareto,
    ideal_accuracy,
    plan_eval,
    plan_sweep,
    sweep,
    write_results_csv,
)


def _point(energy, loss, **kw):
    base = dict(technology="sram", voltage=0.7, block_size=7, precision=7,
                dimension=100, replicas=1, trials=1, accuracy_mean=1 - loss,
                accuracy_std=0.0, accuracy_loss=loss, energy_pj=energy,
                latency_ns=1.0)
    base.update(kw)
    return DesignPoint(**base)


def _toy_dataset(rng, classes=4, dimension=140, queries=60, flip=0.08):
    rows = np.stack([rng.integers(0, 2, size=dimension, dtype=np.uint8)
                     for _ in range(classes)])
    am = packed_memory([f"c{i}" for i in range(classes)], rows)
    qs, labels = [], []
    for i in range(queries):
        c = i % classes
        noise = (rng.random(dimension) < flip).astype(np.uint8)
        qs.append(np.bitwise_xor(rows[c], noise))
        labels.append(f"c{c}")
    return am, pack(np.stack(qs)), labels


# ---------------------------------------------------------------------------
# SweepSpace


def test_sweep_space_validation():
    with pytest.raises(ValueError, match="non-empty"):
        SweepSpace(voltages=())
    with pytest.raises(ValueError, match="odd"):
        SweepSpace(replicas=(2,))
    with pytest.raises(ValueError, match="P <= N"):
        SweepSpace(block_sizes=(4,), precisions=(7,))
    with pytest.raises(ValueError, match="trials"):
        SweepSpace(trials=0)
    for axis, values in (("technologies", ("sram", "sram")), ("voltages", (0.7, 0.701)),
                         ("block_sizes", (7, 15, 7)), ("dimensions", (100, 100))):
        with pytest.raises(ValueError, match=f"axis '{axis}' names one configuration twice"):
            SweepSpace(**{axis: values})


def test_configurations_skip_invalid_pairs():
    space = SweepSpace(block_sizes=(4, 15), precisions=(7,), voltages=(0.7,))
    configs = list(space.configurations())
    assert all(p <= n for _, _, n, p, _, _ in configs)
    assert len(configs) == 1  # only (15, 7) survives


def test_derive_point_seed_stable_and_distinct():
    key_a = ("sram", 0.7, 15, 7, 10000, 1)
    key_b = ("sram", 0.7, 15, 7, 10000, 3)
    assert derive_point_seed(0, key_a) == derive_point_seed(0, key_a)
    assert derive_point_seed(0, key_a) != derive_point_seed(0, key_b)
    assert derive_point_seed(0, key_a) != derive_point_seed(1, key_a)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_noise_free_full_precision_equals_ideal(rng):
    am, qs, labels = _toy_dataset(rng)
    point = evaluate(am, qs, labels, BlockConfig(140, 7, 7), hw=None, trials=3)
    assert point.accuracy_mean == pytest.approx(ideal_accuracy(am, qs, labels))
    assert point.accuracy_loss == pytest.approx(0.0)
    assert point.accuracy_std == 0.0  # deterministic: trials collapse


def test_evaluate_tiny_sigma_table_equals_noise_free(rng):
    am, qs, labels = _toy_dataset(rng)
    cfg = BlockConfig(140, 5, 3)
    mu = np.linspace(2.0, 1.2, 3)
    entry = hwmodel.HwEntry("sram", 0.7, 5, 3, mu, np.full(3, 1e-9), 3.0, np.full(4, 2.0))
    noisy = evaluate(am, qs, labels, cfg, hw=entry, trials=2, seed=5)
    clean = evaluate(am, qs, labels, cfg, hw=None, trials=1)
    assert noisy.accuracy_mean == pytest.approx(clean.accuracy_mean)
    # flat 2 fJ per comparison: classes * blocks * 2 / 1000 pJ
    expected_pj = len(am) * cfg.num_blocks * 2.0 / 1000.0
    assert noisy.energy_pj == pytest.approx(expected_pj)
    assert noisy.latency_ns > 0


def test_evaluate_precision_above_table_rejected():
    """The eval set-up refuses a precision above its table's (7 at N = 15)."""
    with pytest.raises(ConfigError, match="exceeds"):
        plan_eval(hwmodel.default_catalog, 140, "sram", 0.7, 15, 10, 1, 10, 0)


def test_evaluate_dimension_mismatch(rng):
    am, qs, labels = _toy_dataset(rng)
    with pytest.raises(DimensionMismatchError):
        evaluate(am, qs, labels, BlockConfig(141, 7, 7))


def test_evaluate_deterministic_given_seed(rng):
    am, qs, labels = _toy_dataset(rng, flip=0.3)
    entry = hwmodel.default_catalog().get("fefinfet", 0.5, 7)
    cfg = BlockConfig(140, 7, 7)
    a = evaluate(am, qs, labels, cfg, hw=entry, trials=4, seed=9)
    b = evaluate(am, qs, labels, cfg, hw=entry, trials=4, seed=9)
    assert a == b
    c = evaluate(am, qs, labels, cfg, hw=entry, trials=4, seed=10)
    assert (c.accuracy_mean, c.accuracy_std) != (a.accuracy_mean, a.accuracy_std)


def test_evaluate_chunked_draws_equal_one_draw(rng, monkeypatch):
    """A trial's draws over query chunks, down to one query, give the point of
    one draw over all queries."""
    am, qs, labels = _toy_dataset(rng, flip=0.3)
    entry = hwmodel.default_catalog().get("fefinfet", 0.5, 7)
    cfg = BlockConfig(140, 7, 7)
    want = evaluate(am, qs, labels, cfg, hw=entry, replicas=3, trials=3, seed=4)
    for chunk in (1, 7 * 4 * 8 * 8 * 8):
        monkeypatch.setattr(am_module, "CHUNK_BYTES", chunk)
        assert evaluate(am, qs, labels, cfg, hw=entry, replicas=3, trials=3, seed=4) == want


def test_evaluate_working_set_is_bounded_in_bytes(traced_peak):
    """800 queries, 8 classes, P = 7 and one noisy trial: beyond its pair
    histogram, a call holds at most four CHUNK_BYTES, its draws included."""
    rng = np.random.default_rng(5)
    am = packed_memory(list("abcdefgh"), rng.integers(0, 2, (8, 10_000), dtype=np.uint8))
    qs = pack(rng.integers(0, 2, (800, 10_000), dtype=np.uint8))
    labels = [am.labels[i % 8] for i in range(800)]
    entry = hwmodel.default_catalog().get("fefinfet", 0.7, 15)
    point, peak = traced_peak(evaluate, am, qs, labels, BlockConfig(10_000, 15, 7), entry, 1, 1)
    assert point.energy_pj > 0
    assert peak <= 800 * 8 * 8 * 8 + 4 * am_module.CHUNK_BYTES


def test_evaluate_replica_voting_improves_noisy_accuracy(rng):
    am, qs, labels = _toy_dataset(rng, flip=0.15)
    entry = hwmodel.default_catalog().get("fefinfet", 0.5, 7)
    cfg = BlockConfig(140, 7, 7)
    r1 = evaluate(am, qs, labels, cfg, hw=entry, replicas=1, trials=10, seed=3)
    r7 = evaluate(am, qs, labels, cfg, hw=entry, replicas=7, trials=10, seed=3)
    assert r7.accuracy_mean >= r1.accuracy_mean
    assert r7.latency_ns >= r1.latency_ns  # max over more parallel draws


def _sloped_entry(technology, voltage, block_size):
    """A default entry whose energy grows with the reported distance."""
    entry = hwmodel.default_catalog().get(technology, voltage, block_size)
    slope = 1 + 0.25 * np.arange(entry.energy_fj.size)
    return replace(entry, energy_fj=entry.energy_fj * slope)


@pytest.mark.parametrize("entry,precision,replicas", [
    (hwmodel.default_catalog().get("fefinfet", 0.7, 7), 7, 3),
    (_sloped_entry("sram", 0.7, 7).with_precision(5), 5, 1),
    (_sloped_entry("fefinfet", 0.5, 7), 7, 7),
], ids=["fefinfet-r3", "sram-sloped-P5-r1", "fefinfet-sloped-r7"])
def test_evaluate_matches_gaussian_oracle(entry, precision, replicas):
    """Mean accuracy, energy and latency over many trials agree with reading
    every block and replica through its own Gaussian draw, within 5 standard
    errors of the difference."""
    am, qs, labels = _toy_dataset(np.random.default_rng(12345), flip=0.42)
    cfg = BlockConfig(140, 7, precision)
    trials, oracle_trials = 2000, 600
    point = evaluate(am, qs, labels, cfg, hw=entry, replicas=replicas, trials=trials, seed=1)
    ref = evaluate_trials(am, qs, labels, cfg, entry, replicas, oracle_trials, seed=2)
    assert 0.5 < ref[:, 0].mean() < 0.95  # the reports are noisy enough to matter
    for got, column in ((point.accuracy_mean, 0), (point.energy_pj, 1), (point.latency_ns, 2)):
        se = ref[:, column].std(ddof=1) * np.sqrt(1 / trials + 1 / oracle_trials)
        assert abs(got - ref[:, column].mean()) <= 5 * se + 1e-12 * abs(got)
    assert point.accuracy_std == pytest.approx(ref[:, 0].std(), rel=0.15)


@st.composite
def _tiny_point(draw, partial=False):
    """(memory, queries, labels, hand-made table, N, P, r) of a point small
    enough to enumerate: 1-3 queries, 2-3 classes, at most 3 blocks of N <= 3,
    P <= 2 and r in {1, 3}; with ``partial``, N does not divide D. The table
    holds a precision of P or above, so that the point reads it restricted."""
    n = draw(st.integers(2, 3))
    blocks = draw(st.integers(1, 3))
    d = blocks * n - draw(st.integers(1 if partial else 0, n - 1))
    precision = draw(st.integers(1, 2))
    table_precision = draw(st.integers(precision, n))
    classes, num_q = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    bits = st.lists(st.integers(0, 1), min_size=d, max_size=d)
    rows = draw(st.lists(bits, min_size=classes, max_size=classes))
    queries = draw(st.lists(bits, min_size=num_q, max_size=num_q))
    truth = draw(st.lists(st.integers(0, classes - 1), min_size=num_q, max_size=num_q))
    sigma = draw(st.lists(st.sampled_from([0.3, 0.5, 0.8]),
                          min_size=table_precision, max_size=table_precision))
    energy = draw(st.lists(st.integers(1, 5), min_size=table_precision + 1,
                           max_size=table_precision + 1))
    # Nominal latencies 1 ns apart, falling with the distance.
    hw = hwmodel.HwEntry("sram", 0.7, n, table_precision, np.arange(table_precision, 0, -1.0),
                         np.array(sigma), table_precision + draw(st.sampled_from([0.5, 1.0])),
                         np.array(energy, dtype=float))
    return (packed_memory([f"c{k}" for k in range(classes)], np.array(rows, dtype=np.uint8)),
            pack(np.array(queries, dtype=np.uint8)), [f"c{k}" for k in truth], hw, n,
            precision, draw(st.sampled_from([1, 3])))


def _shrunk_z(value, exact, variance, trials, floor):
    """The distance of a mean over ``trials`` from its exact value in standard
    errors, with ``floor`` (one read's worth in one trial) taken off."""
    excess = abs(value - exact) - floor - 1e-12 * abs(exact)
    if excess <= 0:
        return 0.0
    assert variance > 0, f"{value} differs from the exact {exact}, which has no spread"
    return math.copysign(excess / math.sqrt(variance / trials), value - exact)


# Not shrunk: the points are tiny already, and each example runs for seconds.
@settings(max_examples=2, deadline=None, derandomize=True, phases=[Phase.generate])
@given(st.lists(_tiny_point(), min_size=7, max_size=7), _tiny_point(partial=True),
       st.integers(0, 2**32))
def test_sweep_matches_enumeration_oracle(points, partial, seed):
    """Accuracy and energy of an eval's point over many trials agree with
    their exact values, from enumerating every read outcome, within 5
    standard errors per point and 6 sqrt(k) summed over the k points."""
    trials = 1500
    zs = {"accuracy": [], "energy": []}
    for memory, queries, labels, hw, n, precision, replicas in [*points, partial]:
        plan = plan_eval(lambda: hwmodel.Catalog([hw]), memory.dimension, "sram", 0.7, n,
                         precision, replicas, trials, seed)
        [point] = sweep(plan, {memory.dimension: (memory, queries, labels)})
        accuracy, accuracy_var, energy, energy_var = exact_point(
            memory, queries, labels, n, precision, hw, replicas)
        step = 1.0 / (len(queries) * trials)
        zs["accuracy"].append(_shrunk_z(point.accuracy_mean, accuracy, accuracy_var, trials,
                                        step))
        zs["energy"].append(_shrunk_z(point.energy_pj, energy, energy_var, trials,
                                      np.ptp(hw.energy_fj[:precision + 1]) / 1000 * step))
    for metric, z in zs.items():
        assert max(map(abs, z)) <= 5, (metric, z)
        assert abs(sum(z)) <= 6 * math.sqrt(len(z)), (metric, z)


def test_evaluate_flat_energy_equal_across_replicas_and_seeds(rng):
    """A flat table charges the same float energy whatever the draws."""
    am, qs, labels = _toy_dataset(rng, flip=0.42)
    entry = hwmodel.default_catalog().get("fefinfet", 0.7, 7)
    energies = {
        evaluate(am, qs, labels, BlockConfig(140, 7, 7), hw=entry, replicas=r,
                 trials=3, seed=seed).energy_pj
        for r in (1, 3, 7) for seed in (0, 1, 2)
    }
    assert len(energies) == 1
    # and at sweep scale: any split of 10^6 reads over the reported distances
    flat = np.full(8, entry.energy_fj[0])
    splits = rng.multinomial(10**6, np.full(8, 1 / 8), size=50)
    assert len({hwmodel.energy_pj(flat, counts) for counts in splits}) == 1


@pytest.mark.parametrize("hw", [None, hwmodel.default_catalog().get("sram", 1.0, 7)],
                         ids=["ideal", "sram"])
def test_unseen_query_label_is_a_miss(rng, hw):
    am, qs, labels = _toy_dataset(rng)
    labels = ["unseen"] + labels[1:]
    point = evaluate(am, qs, labels, BlockConfig(140, 7, 7), hw=hw, trials=2)
    assert point.accuracy_mean <= 1 - 1 / len(labels)
    [(_, _, acc, _)] = precision_rows(am, qs, labels, [7], [7])
    assert acc == ideal_accuracy(am, qs, labels) <= 1 - 1 / len(labels)


def test_evaluate_on_folded_histogram_equals_clamp_and_sum(rng):
    """Noise-free ``evaluate`` on one histogram per N, folded from the largest
    P as ``sweep`` does, equals clamping the unclamped block distances at each
    P and summing them, including N that do not divide D."""
    am, qs, labels = _toy_dataset(rng, dimension=143, flip=0.3)
    block_sizes, precisions = [2, 3, 7, 9, 16, 33, 70], list(range(1, 16))
    baseline = ideal_accuracy(am, qs, labels)
    label_idx = np.array([am.labels.index(label) for label in labels])
    want = distance_oracle.precision_rows(unpack(am.class_matrix, 143), unpack(qs, 143),
                                          label_idx, baseline, block_sizes, precisions)
    assert precision_rows(am, qs, labels, block_sizes, precisions, baseline) == want
    assert len({acc for _, _, acc, _ in want}) > 3  # the precisions do differ


# ---------------------------------------------------------------------------
# sweep


def test_sweep_builds_one_histogram_per_dimension_and_block_size(rng, monkeypatch):
    """Each (D, N) histogram is built once, clamped at its largest P, and
    every point folded from it equals a stand-alone evaluate."""
    small = _toy_dataset(rng, dimension=140, flip=0.3)
    large = _toy_dataset(rng, dimension=280, flip=0.3)
    datasets = {140: small, 280: large}
    built = []
    real = explorer.distance_histogram

    def spy(queries, classes, dimension, block_size, precision=None):
        built.append((dimension, block_size, precision))
        return real(queries, classes, dimension, block_size, precision)

    monkeypatch.setattr(explorer, "distance_histogram", spy)
    space = SweepSpace(technologies=("sram", "fefinfet"), voltages=(0.5, 0.7),
                       block_sizes=(5, 7), precisions=(3, 5, 7), dimensions=(140, 280),
                       replicas=(1, 3), trials=2, seed=6)
    cat = hwmodel.default_catalog()
    points = sweep(plan_sweep(space, cat), datasets, jobs=2)
    assert sorted(built) == [(140, 5, 5), (140, 7, 7), (280, 5, 5), (280, 7, 7)]
    assert [p.config_key for p in points] == list(space.configurations())
    built.clear()
    for point, (tech, v, n, p, d, r) in zip(points, space.configurations()):
        am, qs, labels = datasets[d]
        direct = evaluate(am, qs, labels, BlockConfig(d, n, p),
                          hw=cat.get(tech, v, n).with_precision(p), replicas=r, trials=2,
                          seed=derive_point_seed(6, (tech, v, n, p, d, r)),
                          baseline_accuracy=ideal_accuracy(am, qs, labels))
        assert point == direct
    assert len(built) == len(points)  # evaluate alone builds its own, clamped at P


def test_sweep_single_point_equals_evaluate(rng):
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(technologies=("sram",), voltages=(0.7,), block_sizes=(7,),
                       precisions=(7,), dimensions=(140,), replicas=(1,),
                       trials=3, seed=11)
    cat = hwmodel.default_catalog()
    [point] = sweep(plan_sweep(space, cat), {140: (am, qs, labels)})
    direct = evaluate(
        am, qs, labels, BlockConfig(140, 7, 7),
        hw=cat.get("sram", 0.7, 7), trials=3,
        seed=derive_point_seed(11, ("sram", 0.7, 7, 7, 140, 1)),
        baseline_accuracy=ideal_accuracy(am, qs, labels),
    )
    assert point == direct


def test_sweep_results_independent_of_jobs(rng):
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(technologies=("sram", "fefinfet"), voltages=(0.5, 1.0),
                       block_sizes=(7,), precisions=(7,), dimensions=(140,),
                       replicas=(1,), trials=2, seed=4)
    cat = hwmodel.default_catalog()
    serial = sweep(plan_sweep(space, cat), {140: (am, qs, labels)}, jobs=1)
    parallel = sweep(plan_sweep(space, cat), {140: (am, qs, labels)}, jobs=4)
    assert sorted(map(asdict, serial), key=str) == sorted(map(asdict, parallel), key=str)


def test_sweep_point_seed_follows_its_configuration_key(rng):
    """Voltages equal to 10 mV are one point: the same table, the same seed,
    the same row."""
    am, qs, labels = _toy_dataset(rng, flip=0.35)  # noisy enough for misreads to show
    rows = []
    for voltage in (0.7, 0.701):
        space = SweepSpace(technologies=("fefinfet",), voltages=(voltage,), block_sizes=(7,),
                           precisions=(3,), dimensions=(140,), trials=3)
        points = sweep(plan_sweep(space, hwmodel.default_catalog()), {140: (am, qs, labels)})
        rows.append([asdict(p) for p in points])
    assert rows[0] == rows[1]


def test_sweep_fails_fast_on_catalog_gap(rng):
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(block_sizes=(7, 15), voltages=(0.7,), dimensions=(140,))
    cat = hwmodel.Catalog(hwmodel.default_catalog().select(block_size=7))  # 15 missing
    with pytest.raises(ConfigError, match="no entry"):
        sweep(plan_sweep(space, cat), {140: (am, qs, labels)})


@pytest.mark.parametrize("block_sizes, precisions, error, message", [
    ((7, 25), (7, 8), ConfigError, "precision 8 exceeds the hardware table's maximum of 7"),
    ((7,), (7, 0), ValueError, r"precision must be in \[1, 7\], got 0"),
], ids=["above-the-table", "zero"])
def test_sweep_refuses_an_invalid_point_before_the_first_runs(rng, block_sizes, precisions,
                                                              error, message):
    """A point whose precision its table or its block geometry refuses fails
    the sweep before any point, even one listed before it, is reported."""
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(voltages=(0.7,), block_sizes=block_sizes, precisions=precisions,
                       dimensions=(140,), trials=1)
    reported = []
    with pytest.raises(error, match=message):
        sweep(plan_sweep(space, hwmodel.default_catalog()), {140: (am, qs, labels)},
              progress=reported.append)
    assert reported == []


def test_sweep_requires_datasets_for_all_dimensions(rng):
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(block_sizes=(7,), voltages=(0.7,), dimensions=(140, 280))
    cat = hwmodel.default_catalog()
    with pytest.raises(ConfigError, match="dimension 280"):
        sweep(plan_sweep(space, cat), {140: (am, qs, labels)})


def test_sweep_skips_done_points(rng):
    """A resumed point is matched by its configuration key, voltage rounded
    to 10 mV, and its configuration is not evaluated again."""
    am, qs, labels = _toy_dataset(rng)
    space = SweepSpace(voltages=(0.5, 1.0), block_sizes=(7,), dimensions=(140,),
                       trials=1)
    cat = hwmodel.default_catalog()
    configs = list(space.configurations())
    done = [_point(1.0, 0.0, voltage=configs[0][1] + 1e-9, dimension=140)]
    points = sweep(plan_sweep(space, cat), {140: (am, qs, labels)}, done=done)
    assert len(points) == 1
    assert points[0].voltage == configs[1][1]


# ---------------------------------------------------------------------------
# Pareto front


def _brute_force_front(points):
    out = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            if (q.energy_pj <= p.energy_pj and q.accuracy_loss <= p.accuracy_loss
                    and (q.energy_pj < p.energy_pj or q.accuracy_loss < p.accuracy_loss)):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def test_pareto_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pts = [_point(float(e), float(l))
               for e, l in zip(rng.random(150), rng.random(150))]
        got = sorted((p.energy_pj, p.accuracy_loss) for p in flag_pareto(pts) if p.pareto)
        want = sorted((p.energy_pj, p.accuracy_loss) for p in _brute_force_front(pts))
        assert got == want


def test_pareto_retains_equal_duplicates():
    pts = [_point(1.0, 0.5), _point(1.0, 0.5), _point(2.0, 0.1), _point(3.0, 0.4)]
    front = [p for p in flag_pareto(pts) if p.pareto]
    assert sum(1 for p in front if p.energy_pj == 1.0) == 2
    assert not any(p.energy_pj == 3.0 for p in front)


def test_pareto_empty_raises():
    with pytest.raises(ValueError):
        flag_pareto([])


# ---------------------------------------------------------------------------
# Energy savings


def test_energy_savings_anchored_at_nominal_voltage():
    pts = [
        _point(30.0, 0.0001, voltage=1.0),
        _point(10.0, 0.0002, voltage=0.7),  # cheap and ~lossless, but not nominal
        _point(5.0, 0.003, voltage=0.5),
    ]
    assert energy_savings(pts, acceptable_loss=0.005) == pytest.approx(6.0)


def test_energy_savings_infeasible():
    with pytest.raises(LookupError, match="accuracy loss"):
        energy_savings([_point(1.0, 0.9)], acceptable_loss=0.005)
    with pytest.raises(LookupError, match="nominal voltage"):
        energy_savings([_point(1.0, 0.004)], acceptable_loss=0.005)


# ---------------------------------------------------------------------------
# Serialization


def test_sweep_log_round_trip(tmp_path):
    """A point appended to a sweep's resume log reads back equal; the log is
    kept when the block fails, unless the block created it and appended no
    point, and deleted when it completes."""
    p = _point(3.5, 0.01, pareto=True)
    log = SweepLog(str(tmp_path / "results.csv"), "abc")
    assert log.read() is None
    for points, want in (([], None), ([p], ([p], False)), ([], ([p], False))):
        with pytest.raises(KeyboardInterrupt):
            with log.appending() as append:
                for point in points:
                    append(point)
                raise KeyboardInterrupt
        assert log.read() == want
    with log.appending() as append:
        append(replace(p, voltage=0.5))
    assert log.read() is None


def test_results_csv_shape():
    pts = [_point(2.0, 0.1, voltage=1.0), _point(1.0, 0.2, voltage=0.5)]
    buf = io.StringIO()
    write_results_csv(pts, buf, metadata_lines=["seed=0"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == CSV_COLUMNS == (
        "technology,voltage_V,block_size,precision,dimension,replicas,trials,"
        "accuracy_mean,accuracy_std,accuracy_loss,energy_pJ,latency_ns,pareto")
    # rows sorted by configuration key: 0.5 V before 1.0 V
    assert lines[2] == "sram,0.5,7,7,100,1,1,0.800000,0.000000,0.200000,1.000000,1.000000,0"
    assert lines[3].startswith("sram,1,")
