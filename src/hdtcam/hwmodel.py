"""Behavioral TCAM hardware model.

A block's match line discharges faster the more cells mismatch, so the
operation latency encodes the block's Hamming distance. Device variation
spreads the latency of each distance into a distribution; a reported
distance is whichever nominal latency's midpoint interval the sampled
latency falls into. Latencies shorter than the lowest midpoint saturate at
the precision P, latencies beyond the sensing timeout read as a full match.

Latency distributions are modeled as Gaussians per distance. The shipped
default tables are calibrated approximations: sigma values are fitted so
the resulting per-distance error envelopes match the published behavior
(max ~39 % for SRAM at 0.7 V with both 0.5 V and 1.0 V lower, max ~78 %
for Fe-FinFET with errors shrinking as voltage rises). Measured tables can
be loaded from JSON instead.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, atomic_open, load_json, setting

TECH_SRAM = "sram"
TECH_FEFET = "fefinfet"
TECHNOLOGIES = (TECH_SRAM, TECH_FEFET)

VOLTAGE_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
MAX_PRECISION = 7

DEFAULT_BLOCK_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 25)

# Nominal one-miss latency in ns for a 15-bit block, per technology and voltage.
_T1_NS = {
    TECH_SRAM: {0.5: 0.160, 0.6: 0.145, 0.7: 0.130, 0.8: 0.118, 0.9: 0.108, 1.0: 0.100},
    TECH_FEFET: {0.5: 5.0, 0.6: 3.2, 0.7: 2.0, 0.8: 1.2, 0.9: 0.6, 1.0: 0.160},
}

# Calibration targets: max per-distance misread probability of the default
# tables at each voltage. SRAM is non-monotonic with its worst point at
# 0.7 V; Fe-FinFET improves steadily with voltage and stays above SRAM.
_MAX_ERROR_TARGET = {
    TECH_SRAM: {0.5: 0.30, 0.6: 0.345, 0.7: 0.39, 0.8: 0.20, 0.9: 0.10, 1.0: 0.004},
    TECH_FEFET: {0.5: 0.78, 0.6: 0.70, 0.7: 0.62, 0.8: 0.54, 0.9: 0.46, 1.0: 0.38},
}

# Energy anchors: a 15-bit SRAM block comparison costs 0.73 fJ at 0.5 V and
# 4.53 fJ at 1.0 V; other voltages follow a geometric interpolation between
# the anchors. Fe-FinFET is 19 % more expensive at 0.5 V and on par above.
_SRAM_E15_05V_FJ = 0.73
_SRAM_E15_10V_FJ = 4.53
_FEFET_ENERGY_FACTOR = {0.5: 1.19, 0.6: 1.10, 0.7: 1.0, 0.8: 1.0, 0.9: 1.0, 1.0: 1.0}
_PERIPHERY_WEIGHT_FJ = 6.0  # shared sense-amp share in the linear-in-N energy shape
_MISMATCH_ENERGY_FJ = {TECH_SRAM: 1.15, TECH_FEFET: 1.24}  # per mismatching cell


def voltage_key(voltage: float) -> float:
    """The operating point of a supply voltage: voltages equal to 10 mV are one."""
    return round(float(voltage), 2)


def _read_only(values) -> np.ndarray:
    """A float copy of ``values`` that cannot be written to."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, slots=True)
class HwEntry:
    """One (technology, voltage, block size) operating point: Gaussian latency
    distributions per Hamming distance and the energy of a block comparison.

    ``mu_ns[h-1]`` / ``sigma_ns[h-1]`` describe distance h in 1..P. Nominal
    latencies strictly decrease with distance; anything slower than
    ``match_timeout_ns`` reads as a full match (distance 0). ``energy_fj[j]``
    is the energy of a comparison that reports j in 0..P. The arrays are
    read-only copies, so a table can be shared.
    """

    technology: str
    voltage: float
    block_size: int
    precision: int
    mu_ns: np.ndarray
    sigma_ns: np.ndarray
    match_timeout_ns: float
    energy_fj: np.ndarray
    temperature_c: float | None = None

    def __post_init__(self):
        mu, sigma, energy = map(_read_only, (self.mu_ns, self.sigma_ns, self.energy_fj))
        object.__setattr__(self, "mu_ns", mu)
        object.__setattr__(self, "sigma_ns", sigma)
        object.__setattr__(self, "energy_fj", energy)
        if not (math.isfinite(self.voltage) and self.voltage > 0):
            raise ConfigError(f"voltage_V must be finite and positive, got {self.voltage}")
        if self.temperature_c is not None and not -273.15 <= self.temperature_c < math.inf:
            raise ConfigError(f"temperature_C must be in [-273.15, inf), got {self.temperature_c}")
        if not 1 <= self.precision <= self.block_size:
            raise ConfigError(
                f"precision must be in [1, {self.block_size}], got {self.precision}"
            )
        if mu.shape != (self.precision,) or sigma.shape != (self.precision,):
            raise ConfigError(
                f"mu/sigma must list exactly {self.precision} distances"
            )
        if not np.all(np.isfinite([*mu, *sigma, self.match_timeout_ns])):
            raise ConfigError("mu, sigma and match_timeout must be finite")
        if np.any(np.diff(mu) >= 0):
            raise ConfigError("mu must be strictly decreasing in the Hamming distance")
        if np.any(sigma <= 0):
            raise ConfigError("sigma must be strictly positive")
        if self.match_timeout_ns <= mu[0]:
            raise ConfigError("match_timeout must exceed the one-miss latency")
        with np.errstate(over="ignore"):
            thresholds = self.thresholds_ns
        if not (np.all(np.isfinite(thresholds)) and np.all(np.diff(thresholds) > 0)):
            raise ConfigError(
                f"decision thresholds {thresholds.tolist()} are not finite and strictly "
                "ascending (latencies too large or too close)"
            )
        _check_technology(self.technology)
        if energy.shape != (self.precision + 1,):
            raise ConfigError("energy_fJ must be a scalar or list of length precision+1")
        if not np.all(np.isfinite(energy) & (energy > 0)):
            raise ConfigError("energy_fJ entries must be positive and finite")

    @property
    def thresholds_ns(self) -> np.ndarray:
        """Ascending decision boundaries: P-1 midpoints plus the match timeout.

        A latency t maps to the reported distance P - searchsorted(thresholds, t).
        """
        return _thresholds(self.mu_ns, np.asarray(self.match_timeout_ns))

    def with_precision(self, precision: int) -> "HwEntry":
        """Restrict the decision rule and the energy table to a lower
        precision (same physics)."""
        if precision == self.precision:
            return self
        if precision > self.precision:
            raise ConfigError(
                f"precision {precision} exceeds the hardware table's maximum of {self.precision}"
            )
        return replace(self, precision=precision, mu_ns=self.mu_ns[:precision],
                       sigma_ns=self.sigma_ns[:precision],
                       energy_fj=self.energy_fj[:precision + 1])

    def slowest_latency(self, reads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Latency of the slowest of independent reads, per row of ``reads``.

        ``reads[..., h]`` counts the reads of true distance h = 0..P. The
        slowest of m draws of N(mu, sigma) is mu + sigma * Phi^-1(U^(1/m))
        for one uniform U, so one draw per row and distance h >= 1 is exact
        in distribution; 1 - U^(1/m) is taken as -expm1(log(U) / m), which
        keeps its precision when m is large. A row with a distance-0 read
        waits at least the sensing timeout; a row without reads gives -inf.
        """
        reads = np.asarray(reads)
        m = reads[..., 1:]
        read = m > 0
        u = rng.random(m.shape)
        with np.errstate(divide="ignore"):
            tail = -np.expm1(np.log(u[read]) / m[read])  # 1 - U^(1/m)
        # U at either end of [0, 1) would put the quantile at +-infinity.
        tail = np.clip(tail, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        z = -np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)(tail).astype(float)
        latency = np.full(m.shape, -np.inf)
        latency[read] = (np.broadcast_to(self.mu_ns, m.shape)[read]
                         + np.broadcast_to(self.sigma_ns, m.shape)[read] * z)
        slowest = latency.max(axis=-1)
        return np.where(reads[..., 0] > 0, np.maximum(slowest, self.match_timeout_ns), slowest)


def _thresholds(mu, timeout):
    """Ascending decision boundaries, P-1 midpoints and the timeout, per model."""
    mids = (mu[..., :-1] + mu[..., 1:]) / 2.0
    return np.concatenate([mids[..., ::-1], timeout[..., None]], axis=-1)


def _cdf(t, mu, sigma):
    """Phi((t - mu) / sigma) elementwise, from ``math.erf``."""
    z = (t - mu) / sigma
    return 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(float))


def _confusion(mu, sigma, timeout):
    """Analytic confusion matrices of a stack of latency models under the
    midpoint rule: mu, sigma (..., P) and timeout (...) -> (..., P+1, P+1)."""
    p = mu.shape[-1]
    cdf = _cdf(_thresholds(mu, timeout)[..., None, :], mu[..., None], sigma[..., None])
    cm = np.zeros(mu.shape[:-1] + (p + 1, p + 1))
    cm[..., 0, 0] = 1.0  # a perfect match never discharges the line
    # Latency bin k reports P - k (the last bin, beyond the timeout, reports 0).
    cm[..., 1:, :] = np.diff(cdf, axis=-1, prepend=0.0, append=1.0)[..., ::-1]
    return cm


def _max_misread(mu, sigma, timeout):
    """max_h (1 - cm[h, h]) of ``_confusion`` from the 2P - 1 CDF values bounding its diagonal."""
    bounds = _thresholds(mu, timeout)[..., ::-1]
    upper = _cdf(bounds, mu, sigma)
    lower = _cdf(bounds[..., 1:], mu[..., :-1], sigma[..., :-1])
    return np.max(1.0 - np.concatenate([upper[..., :-1] - lower, upper[..., -1:]], -1), -1)


def confusion_from_latency(hw: HwEntry) -> np.ndarray:
    """Analytic (P+1)x(P+1) matrix of P(reported j | true i) under the midpoint rule."""
    return _confusion(hw.mu_ns, hw.sigma_ns, np.asarray(hw.match_timeout_ns))


def error_probability(cm: np.ndarray, h: int) -> float:
    """Probability that a true distance h is misreported: 1 - p[h][h]."""
    return float(1.0 - cm[h, h])


MAX_REPLICAS = 1029  # the largest r whose C(r, j), weighed by median_confusion, are floats


def check_replicas(replicas: int) -> None:
    """ValueError unless ``replicas`` is an odd count in [1, MAX_REPLICAS]."""
    if not (1 <= replicas <= MAX_REPLICAS and replicas % 2 == 1):
        raise ValueError(f"replica count must be odd and in [1, {MAX_REPLICAS}], got {replicas}")


def median_confusion(cm: np.ndarray, replicas: int) -> np.ndarray:
    """Confusion matrix of the median of ``replicas`` independent reads.

    The median is at most k exactly when at least (r+1)/2 reads are, so with
    F_k the row CDF of ``cm``:
    P(med <= k) = sum_{j >= (r+1)/2} C(r, j) F_k^j (1 - F_k)^(r-j).
    One-hot rows stay one-hot.
    """
    check_replicas(replicas)
    if replicas == 1:
        return cm
    cdf = np.clip(np.cumsum(cm, axis=1), 0.0, 1.0)
    med = sum(math.comb(replicas, j) * cdf ** j * (1.0 - cdf) ** (replicas - j)
              for j in range((replicas + 1) // 2, replicas + 1))
    med[:, -1] = 1.0
    return np.maximum(np.diff(med, axis=1, prepend=0.0), 0.0)


# ---------------------------------------------------------------------------
# Energy


def energy_pj(energy_fj: np.ndarray, counts: np.ndarray) -> float:
    """Total energy in pJ of block comparisons, ``counts[j]`` of which reported j.

    Charged as e(0) * sum(c) + sum_j (e(j) - e(0)) * c_j: with a flat table
    the second term is exactly zero, so the energy does not depend on which
    distances were reported.
    """
    energy_fj = np.asarray(energy_fj, dtype=float)
    counts = np.asarray(counts)
    excess = float(np.dot(energy_fj - energy_fj[0], counts))
    return (float(energy_fj[0] * counts.sum()) + excess) / 1000.0


def default_block_energy_fj(technology: str, voltage: float, block_size: int) -> float:
    """Flat per-comparison energy of the default tables, in fJ, at a voltage of VOLTAGE_GRID."""
    ratio = _SRAM_E15_10V_FJ / _SRAM_E15_05V_FJ
    scale = _SRAM_E15_05V_FJ * ratio ** ((voltage - 0.5) / 0.5)
    if technology == TECH_FEFET:
        scale *= _FEFET_ENERGY_FACTOR[voltage_key(voltage)]
    ec = _MISMATCH_ENERGY_FJ[technology]
    shape = (_PERIPHERY_WEIGHT_FJ + block_size * ec) / (_PERIPHERY_WEIGHT_FJ + 15 * ec)
    return scale * shape


# ---------------------------------------------------------------------------
# Default table generation


def _check_technology(technology: str) -> None:
    if technology not in TECHNOLOGIES:
        raise ConfigError(f"unknown technology {technology!r}, expected one of {TECHNOLOGIES}")


def _default_latency(keys):
    """The default latency shape of K keys of one precision P, as a map from
    sigma scales ``spread`` (K,) to mu, sigma (K, P) and match timeout (K,)."""
    p = keys[0][3]
    t1 = np.array([[_T1_NS[tech][v] * (0.7 + 0.3 * n / 15.0)] for tech, v, n, _ in keys])
    # Geometric gap shrink: each extra miss roughly halves the latency gap.
    q = 0.5
    gaps = 0.5 * t1 * (1 - q) / (1 - q ** (p - 1)) * q ** np.arange(p - 1)
    mu = t1 - np.concatenate([np.zeros_like(t1), np.cumsum(gaps, axis=-1)], axis=-1)
    local = np.concatenate([gaps, gaps[:, -1:] * q], axis=-1)
    widen = 1.0 + 0.08 * np.arange(p)  # wider spread at higher distances
    def at(spread):
        sigma = spread[:, None] * local * widen
        return mu, sigma, t1[:, 0] + np.maximum(4.0 * sigma[:, 0], 0.5 * local[:, 0])
    return at


def _default_tables(keys) -> list:
    """The default table of each key (technology, voltage, block size,
    precision), in key order, its sigma scale putting its largest misread
    probability at its voltage's target.

    Keys of one precision are bisected together on [1e-8, 50] by their confusion
    diagonals, to a fixed point (step 62 on the grid) or 80 steps: 0.035-0.065 s
    for the 144 catalog keys, 0.0035-0.007 s for six of them, 2 vCPUs. A key's
    table does not depend on the other keys of the call.
    """
    tables = {}
    for p in sorted({k[3] for k in keys}):
        group = [k for k in keys if k[3] == p]
        latency = _default_latency(group)
        target = np.array([_MAX_ERROR_TARGET[tech][v] for tech, v, _, _ in group])
        lo, hi = np.full(len(group), 1e-8), np.full(len(group), 50.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = _max_misread(*latency(mid)) < target
            if np.array_equal(mid, np.where(below, lo, hi)):
                break  # (lo, hi) is a fixed point of the step
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        for key, mu, sigma, timeout in zip(group, *latency(0.5 * (lo + hi))):
            energy = default_block_energy_fj(*key[:3])
            tables[key] = HwEntry(*key, mu, sigma, float(timeout), np.full(p + 1, energy))
    return [tables[k] for k in keys]


class Catalog:
    """Lookup of hardware entries keyed by (technology, voltage, block size).

    A catalog holds tables, or keys whose tables ``build`` makes the first
    time a lookup reads them: ``build`` maps a list of keys to their tables,
    in key order, and every lookup builds all of its missing keys in one
    call. ``len`` counts both without building; an unfiltered ``select``,
    the one way to read every table, builds every missing table in one call.
    Builds are serialized by a lock, so threads can share a catalog.
    """

    def __init__(self, entries=(), pending=(), build=None):
        self._entries = {self._key(e.technology, e.voltage, e.block_size): e for e in entries}
        self._entries.update((self._key(*key), None) for key in pending)
        self._build = build
        self._lock = threading.Lock()

    @staticmethod
    def _key(technology, voltage, block_size):
        return (technology, voltage_key(voltage), int(block_size))

    def _tables(self, keys) -> list:
        """The tables of catalog keys, in order, after building the missing ones in one call."""
        with self._lock:
            missing = list(dict.fromkeys(k for k in keys if self._entries[k] is None))
            if missing:
                self._entries.update(zip(missing, self._build(missing)))
            return [self._entries[k] for k in keys]

    def get_many(self, keys) -> list:
        """The entry of each (technology, voltage, block size) in ``keys``, in
        order; ConfigError for the first key the catalog does not hold."""
        found = []
        for technology, voltage, block_size in keys:
            _check_technology(technology)
            key = self._key(technology, voltage, block_size)
            if key not in self._entries:
                raise ConfigError(
                    f"hardware catalog has no entry for technology={key[0]} "
                    f"voltage_V={key[1]} block_size={key[2]}"
                )
            found.append(key)
        return self._tables(found)

    def get(self, technology, voltage, block_size) -> HwEntry:
        return self.get_many([(technology, voltage, block_size)])[0]

    def select(self, technology=None, voltage=None, block_size=None) -> list:
        """The entries of a technology, voltage and block size (None: any), in
        key order; a voltage matches as ``get`` looks it up, to 10 mV.
        ConfigError when none match."""
        found = [key for key in sorted(self._entries)
                 if technology in (None, key[0]) and block_size in (None, key[2])
                 and (voltage is None or self._key(key[0], voltage, key[2]) == key)]
        if not found:
            raise ConfigError("no hardware table entries match the given filters")
        return self._tables(found)

    def __len__(self):
        return len(self._entries)


def _default_grid_tables(keys) -> list:
    """The default tables of (technology, voltage, block size) keys, at precision min(7, N)."""
    return _default_tables([(*key, min(MAX_PRECISION, key[2])) for key in keys])


@functools.cache
def default_catalog() -> Catalog:
    """The shipped approximate tables for both technologies on the voltage
    grid at precision min(7, N), one catalog per process: a table is
    calibrated the first time a lookup reads it, with the other tables that
    lookup reads, and kept for every later one."""
    return Catalog(pending=[(tech, v, n) for tech in TECHNOLOGIES for v in VOLTAGE_GRID
                            for n in DEFAULT_BLOCK_SIZES], build=_default_grid_tables)


# ---------------------------------------------------------------------------
# Table file I/O


# The table file format: per HwEntry field, its JSON key and its ``errors.setting``
# type. Every key but the last is required; a temperature of None is not written.
TABLE_FIELDS = (("technology", "technology", str), ("voltage", "voltage_V", float),
                ("block_size", "block_size", int), ("precision", "precision", int),
                ("mu_ns", "mu_ns", [float]), ("sigma_ns", "sigma_ns", [float]),
                ("match_timeout_ns", "match_timeout_ns", float),
                ("energy_fj", "energy_fJ", [float]), ("temperature_c", "temperature_C", float))


def _entry_to_doc(entry: HwEntry) -> dict:
    return {key: [kind[0](x) for x in value] if isinstance(kind, list) else kind(value)
            for field, key, kind in TABLE_FIELDS if (value := getattr(entry, field)) is not None}


def _entry_from_doc(doc: dict, where: str) -> HwEntry:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a table object")
    for _, key, _ in TABLE_FIELDS[:-1]:
        if key not in doc:
            raise ConfigError(f"{where}: missing key {key!r}")
    try:
        fields = {}
        for field, key, kind in TABLE_FIELDS:
            scalar = field == "energy_fj" and not isinstance(doc[key], list)
            fields[field] = setting(doc, key, float if scalar else kind)
        if not isinstance(fields["energy_fj"], list):
            # A scalar energy holds for every reported distance 0..P; mu lists P of them.
            fields["energy_fj"] = [fields["energy_fj"]] * (len(fields["mu_ns"]) + 1)
        return HwEntry(**dict(fields, voltage=voltage_key(fields["voltage"])))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_hw_tables(path) -> Catalog:
    """Load and validate a JSON hardware table catalog; at most one table per
    operating point."""
    doc = load_json(path)
    tables = doc.get("tables") if isinstance(doc, dict) else doc
    if not isinstance(tables, list) or not tables:
        raise ConfigError(f"{path}: expected a non-empty array of table objects")
    entries, seen = [], {}
    for i, entry_doc in enumerate(tables):
        entry = _entry_from_doc(entry_doc, f"{path}: tables[{i}]")
        key = Catalog._key(entry.technology, entry.voltage, entry.block_size)
        if key in seen:
            raise ConfigError(
                f"{path}: tables[{seen[key]}] and tables[{i}] both describe technology={key[0]} "
                f"voltage_V={key[1]} block_size={key[2]}"
            )
        seen[key] = i
        entries.append(entry)
    return Catalog(entries)


def save_hw_tables(path, catalog: Catalog) -> None:
    docs = [_entry_to_doc(entry) for entry in catalog.select()]
    with atomic_open(path) as f:
        json.dump({"tables": docs}, f, indent=1, sort_keys=True)
        f.write("\n")
