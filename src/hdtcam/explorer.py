"""Design-space sweep, noisy accuracy evaluation, and Pareto-front extraction."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import threading
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import am as am_mod
from .am import AssociativeMemory, BlockConfig, distance_histogram, ideal_argmin
from .errors import ConfigError, DimensionMismatchError, FormatError, atomic_open, open_text
from .hwmodel import (MAX_PRECISION, Catalog, HwEntry, check_replicas, confusion_from_latency,
                      energy_pj, median_confusion, voltage_key)

# The setting type of each SweepSpace field: the CLI declares a sweep's axes, trials and seed by it.
SWEEP_FIELDS = (("technologies", [str]), ("voltages", [float]), ("block_sizes", [int]),
                ("precisions", [int]), ("dimensions", [int]), ("replicas", [int]),
                ("trials", int), ("seed", int))


@dataclass(frozen=True)
class SweepSpace:
    """Cross product of swept configuration axes; each field holds values of
    the type SWEEP_FIELDS gives its setting."""

    technologies: tuple = ("sram",)
    voltages: tuple = (0.5, 0.7, 1.0)
    block_sizes: tuple = (7, 15)
    precisions: tuple = (7,)
    dimensions: tuple = (10000,)
    replicas: tuple = (1,)
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, kind in SWEEP_FIELDS:
            if not isinstance(kind, list):
                continue
            values = list(getattr(self, name))
            if not values:
                raise ValueError(f"sweep axis {name!r} must be non-empty")
            # Voltages equal to 10 mV are one configuration, as in config_key.
            keys = [voltage_key(v) for v in values] if name == "voltages" else values
            if len(set(keys)) < len(keys):
                raise ValueError(f"sweep axis {name!r} names one configuration twice: {values}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for r in self.replicas:
            check_replicas(r)
        if not any(p <= n for n in self.block_sizes for p in self.precisions):
            raise ValueError("no (block_size, precision) pair satisfies P <= N")

    def configurations(self):
        """Valid configuration tuples in canonical order (P > N pairs skipped)."""
        for tech, v, n, p, d, r in itertools.product(
            self.technologies, self.voltages, self.block_sizes,
            self.precisions, self.dimensions, self.replicas,
        ):
            if p <= n:
                yield (tech, v, n, p, d, r)


def config_key(technology, voltage, block_size, precision, dimension, replicas) -> tuple:
    """The identity of a configuration: voltages equal to 10 mV are one."""
    return (technology, voltage_key(voltage), block_size, precision, dimension, replicas)


@dataclass
class DesignPoint:
    """One swept configuration with its measured metrics."""

    technology: str
    voltage: float
    block_size: int
    precision: int
    dimension: int
    replicas: int
    trials: int
    accuracy_mean: float
    accuracy_std: float
    accuracy_loss: float
    energy_pj: float
    latency_ns: float
    pareto: bool = False

    @property
    def config_key(self):
        return config_key(self.technology, self.voltage, self.block_size,
                          self.precision, self.dimension, self.replicas)


def derive_point_seed(master_seed: int, config_key) -> int:
    """Stable per-configuration seed, independent of sweep iteration order."""
    text = f"{master_seed}|" + "|".join(str(x) for x in config_key)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def ideal_accuracy(am: AssociativeMemory, queries: np.ndarray, labels) -> float:
    """Noise-free full-Hamming accuracy; the loss baseline at this dimension."""
    best, _ = ideal_argmin(queries, am)
    return float(np.mean(best == am.class_index(labels)))


def _fold_histogram(hist: np.ndarray, precision: int) -> np.ndarray:
    """The pair histogram of distances clamped at ``precision``, from one
    clamped at a higher bin or not at all: bins above P move into bin P.

    Exact, because a block's distance never exceeds its size, so clamping at
    P equals clamping at min(P, size). A histogram clamped at P is returned
    as it is.
    """
    if hist.shape[2] == precision + 1:
        return hist
    return np.concatenate(
        [hist[..., :precision], hist[..., precision:].sum(axis=2, keepdims=True)], axis=2)


def evaluate(
    am: AssociativeMemory,
    queries: np.ndarray,
    labels,
    cfg: BlockConfig,
    hw: HwEntry | None = None,
    replicas: int = 1,
    trials: int = 10,
    seed: int = 0,
    baseline_accuracy: float | None = None,
    histogram: np.ndarray | None = None,
) -> DesignPoint:
    """Run blocked inference over the test set, packed query rows, ``trials``
    times and aggregate.

    A read is a confusion matrix of P(reported j | true h): the identity
    without the hardware table ``hw``, else the median of ``replicas`` reads
    of its latencies, and its energies are charged; the point carries the
    table's technology and voltage (``""`` and 0.0 without one). ``hw`` is at
    the precision of ``cfg``, as a plan's ``Setup`` holds it: ``sweep`` runs
    each blocked setup of a plan here, with the setup's trials and seed.
    Reads are independent given the true clamped distance, so each trial
    draws, for every (query, class) pair and distance h, how many of its
    blocks at h report each j: one multinomial over the pair's distance
    histogram, exact in distribution, drawn in query chunks whose draws take
    at most ``am.CHUNK_BYTES`` and summed over h chunk by chunk. One-hot
    matrices are applied without draws. A query's latency is the slowest of
    all its blocks, classes and replicas, which are read in parallel.

    ``histogram`` is this data set's ``distance_histogram`` at the block
    size of ``cfg``, clamped at P or above; without it, it is computed here.
    """
    if cfg.dimension != am.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: blocks of dimension {cfg.dimension}, classes {am.dimension}")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.uint8))
    labels = list(labels)
    label_idx = am.class_index(labels)
    precision = cfg.precision
    cm = (np.eye(precision + 1) if hw is None
          else median_confusion(confusion_from_latency(hw), replicas))
    if histogram is None:
        histogram = distance_histogram(queries, am.class_matrix, cfg.dimension,
                                       cfg.block_size, precision)
    hist = _fold_histogram(histogram, precision)
    one_hot = cm == 1.0
    fixed = hist @ one_hot.astype(np.int64) if one_hot.any(axis=1).all() else None
    reported = np.arange(cm.shape[1])
    reads = replicas * hist.sum(axis=1)  # per query and true distance

    num_q = queries.shape[0]
    # Successive draws over query chunks draw what one call over all queries does.
    step = max(1, am_mod.CHUNK_BYTES // (8 * math.prod(hist.shape[1:]) * cm.shape[1]))
    counts = fixed if fixed is not None else np.empty(hist.shape[:2] + cm.shape[1:], np.int64)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    accuracies = []
    energies = []
    latencies = []
    for trial in range(trials):
        rng = np.random.default_rng(seeds[trial])
        if fixed is None:
            for s in range(0, num_q, step):
                counts[s:s + step] = rng.multinomial(hist[s:s + step], cm).sum(axis=2)
        preds = np.argmin(counts @ reported, axis=1)
        accuracies.append(np.count_nonzero(preds == label_idx) / num_q)
        energies.append(0.0 if hw is None else
                        energy_pj(hw.energy_fj, counts.sum(axis=(0, 1))) / num_q)
        latencies.append(0.0 if hw is None else
                         float(hw.slowest_latency(reads, rng).sum()) / num_q)

    acc_mean = float(np.mean(accuracies))
    acc_std = float(np.std(accuracies))
    if baseline_accuracy is None:
        baseline_accuracy = ideal_accuracy(am, queries, labels)
    return DesignPoint(
        technology=hw.technology if hw else "",
        voltage=hw.voltage if hw else 0.0,
        block_size=cfg.block_size,
        precision=cfg.precision,
        dimension=cfg.dimension,
        replicas=replicas,
        trials=trials,
        accuracy_mean=acc_mean,
        accuracy_std=acc_std,
        accuracy_loss=float(baseline_accuracy - acc_mean),
        energy_pj=float(np.mean(energies)),
        latency_ns=float(np.mean(latencies)),
    )


def check_jobs(jobs: int) -> None:
    """ValueError unless ``jobs``, a sweep's number of evaluation threads, is at least 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


class Setup(typing.NamedTuple):
    """One point of a plan, set up before any data is read: its configuration
    (technology, voltage, N, P, D, r), its block geometry (None: the ideal
    full-Hamming read), its table at P (None: noise-free), and the trials and
    seed it is evaluated with."""

    config: tuple
    block: BlockConfig | None
    hw: HwEntry | None
    trials: int
    seed: int


def plan_sweep(space: SweepSpace, catalog: Catalog) -> tuple:
    """The setups of every configuration of ``space``, in configuration order,
    each seeded from the space's seed and its configuration key. ``catalog``
    builds the tables the sweep reads in one lookup. It reads no data, so a
    sweep that a point's block geometry, its catalog gap or a precision its
    table refuses fails before any data set is read."""
    configs = list(space.configurations())
    geometry = [BlockConfig(d, n, p) for _tech, _v, n, p, d, _r in configs]
    tables = catalog.get_many([config[:3] for config in configs])
    return tuple(Setup(config, cfg, hw.with_precision(cfg.precision), space.trials,
                       derive_point_seed(space.seed, config_key(*config)))
                 for config, cfg, hw in zip(configs, geometry, tables))


def plan_eval(catalog, dimension, technology, voltage, block_size, precision, replicas, trials,
              seed) -> tuple:
    """The plan of an eval's one point, set up before it reads a query, with
    ``seed`` as given: the ideal point without a technology and a block size,
    else blocked, under the table of ``technology`` at ``voltage`` and N from
    ``catalog()`` at the point's precision, or noise-free without a
    technology. P defaults to the table's, else min(N, MAX_PRECISION)."""
    if technology is None and block_size is None:
        return (Setup(("", 0.0, dimension, dimension, dimension, 1), None, None, 1, seed),)
    hw = None if technology is None else catalog().get(technology, voltage, block_size)
    if precision is None:
        precision = hw.precision if hw else min(block_size, MAX_PRECISION)
    cfg = BlockConfig(dimension, block_size, precision)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_replicas(replicas)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    hw = hw and hw.with_precision(precision)
    label = (hw.technology, hw.voltage) if hw else ("", 0.0)
    return (Setup((*label, block_size, precision, dimension, replicas), cfg, hw, trials, seed),)


def sweep(plan: tuple, datasets: dict, jobs: int = 1, done=(), progress=None) -> list:
    """Evaluate the setups of ``plan``, apart from the configurations of the
    points in ``done`` (those of a resumed sweep), each with its own trials
    and seed, and return the new points in plan order. ``progress`` is called
    with each new point, one call at a time.

    ``datasets`` maps dimension -> (AssociativeMemory, queries, labels).
    A dimension without a data set, or ``jobs``, the number of evaluation
    threads, below 1 fails before the first point runs. An ideal setup's
    point is the full-Hamming accuracy, every point's loss baseline; the
    others run ``evaluate``. Results are independent of evaluation order.
    """
    check_jobs(jobs)
    dimensions = dict.fromkeys(setup.config[4] for setup in plan)
    for d in dimensions:
        if d not in datasets:
            raise ConfigError(f"no dataset supplied for dimension {d}")
    baselines = {d: ideal_accuracy(*datasets[d]) for d in dimensions}
    skip = {p.config_key for p in done}
    todo = [setup for setup in plan if config_key(*setup.config) not in skip]
    # The pair histogram depends only on (D, N): build it once per group,
    # clamped at the group's largest precision, and fold it for each point.
    groups = {}
    for i, setup in enumerate(todo):
        groups.setdefault((setup.config[4], setup.block and setup.block.block_size), []).append(i)

    def tasks():
        for (d, n), members in groups.items():
            am, queries, _labels = datasets[d]
            hist = None if n is None else distance_histogram(
                queries, am.class_matrix, d, n, max(todo[i].block.precision for i in members))
            for i in members:
                yield i, hist

    lock = threading.Lock()

    def run(task):
        i, hist = task
        config, cfg, hw, trials, seed = todo[i]
        baseline = baselines[config[4]]
        if cfg is None:
            point = DesignPoint(*config, trials, baseline, 0.0, 0.0, 0.0, 0.0)
        else:
            point = evaluate(*datasets[config[4]], cfg, hw=hw, replicas=config[5], trials=trials,
                             seed=seed, baseline_accuracy=baseline, histogram=hist)
        if progress is not None:
            with lock:
                progress(point)
        return i, point

    if jobs > 1:
        # Histograms are built in this thread while the workers evaluate;
        # the workers only read them.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = dict(pool.map(run, tasks()))
    else:
        done = dict(run(task) for task in tasks())
    return [done[i] for i in range(len(todo))]


def flag_pareto(points) -> list:
    """The points with their ``pareto`` flag set: whether no other point
    dominates them under minimize(energy, accuracy_loss). Equal-coordinate
    duplicates are all on the front.
    """
    points = list(points)
    if not points:
        raise ValueError("cannot take the Pareto front of an empty point set")
    order = sorted(range(len(points)),
                   key=lambda i: (points[i].energy_pj, points[i].accuracy_loss))
    front = set()
    best_cheaper = float("inf")  # min loss among strictly cheaper points
    i = 0
    while i < len(order):
        j = i
        energy = points[order[i]].energy_pj
        while j < len(order) and points[order[j]].energy_pj == energy:
            j += 1
        group = order[i:j]
        group_min = min(points[k].accuracy_loss for k in group)
        if group_min < best_cheaper:
            front.update(k for k in group if points[k].accuracy_loss == group_min)
        best_cheaper = min(best_cheaper, group_min)
        i = j
    return [replace(p, pareto=k in front) for k, p in enumerate(points)]


# ---------------------------------------------------------------------------
# Result serialization

# The results format: per DesignPoint field, its CSV column (also its key in
# a resumed sweep's JSON lines) and how a CSV row formats it.
COLUMNS = (
    ("technology", "technology", "{}"),
    ("voltage", "voltage_V", "{:g}"),
    ("block_size", "block_size", "{}"),
    ("precision", "precision", "{}"),
    ("dimension", "dimension", "{}"),
    ("replicas", "replicas", "{}"),
    ("trials", "trials", "{}"),
    ("accuracy_mean", "accuracy_mean", "{:.6f}"),
    ("accuracy_std", "accuracy_std", "{:.6f}"),
    ("accuracy_loss", "accuracy_loss", "{:.6f}"),
    ("energy_pj", "energy_pJ", "{:.6f}"),
    ("latency_ns", "latency_ns", "{:.6f}"),
    ("pareto", "pareto", "{:d}"),
)
CSV_COLUMNS = ",".join(column for _, column, _ in COLUMNS)


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


_CONVERT = {str: str, int: int, float: _finite, bool: lambda v: bool(int(v))}
_TYPES = typing.get_type_hints(DesignPoint)


def write_results_csv(points, f, metadata_lines=()) -> None:
    for line in metadata_lines:
        f.write(f"# {line}\n")
    f.write(CSV_COLUMNS + "\n")
    for p in sorted(points, key=lambda p: p.config_key):
        f.write(",".join(fmt.format(getattr(p, field)) for field, _, fmt in COLUMNS) + "\n")


def _point_from_dict(doc: dict) -> DesignPoint:
    """The point of a CSV row or a resume-log line keyed by column; KeyError
    for a missing column, ValueError for a value that does not convert or a
    number that is not finite."""
    return DesignPoint(**{field: _CONVERT[_TYPES[field]](doc[column])
                          for field, column, _ in COLUMNS})


def read_results_csv(path) -> tuple:
    """Parse a results CSV back into (points, metadata lines); FormatError
    naming the file, and the row when there is one, if it holds no point or
    a row that is not one."""
    points, meta = [], []
    header = CSV_COLUMNS.split(",")
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                meta.append(line[1:].strip())
                continue
            cells = line.split(",")
            if cells == header:
                continue
            if len(cells) != len(header):
                raise FormatError(
                    f"{path}: expected {len(header)} columns, got {len(cells)}",
                    location=f"row {lineno}",
                )
            try:
                points.append(_point_from_dict(dict(zip(header, cells))))
            except ValueError as exc:
                raise FormatError(f"{path}: not a design point ({exc})",
                                  location=f"row {lineno}") from None
    if not points:
        raise FormatError(f"{path}: no result rows found")
    return points, meta


class SweepLog:
    """The resume log of the sweep writing ``output``: ``<output>.partial.jsonl``
    holds a header line with the sweep's configuration hash, then one JSON
    line per evaluated point, keyed by column."""

    def __init__(self, output: str, config_hash: str):
        self.path = f"{output}.partial.jsonl"
        self.config_hash = config_hash

    def read(self):
        """(points, whether a torn final line was dropped) of an interrupted
        sweep, or None without a log. E-CONFIG when its header is missing or
        carries another configuration hash; E-FORMAT naming the line for a
        body line, other than a torn final one, that is not a point."""
        if not os.path.exists(self.path):
            return None
        with open_text(self.path) as f:
            lines = [(n, line) for n, line in enumerate(f.read().splitlines(), start=1)
                     if line.strip()]
        try:
            header = json.loads(lines[0][1]) if lines else None
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or "config_hash" not in header:
            raise ConfigError(
                f"{self.path}: no configuration header (written by an older hdtcam); "
                "delete it to start the sweep over"
            )
        if header["config_hash"] != self.config_hash:
            raise ConfigError(
                f"{self.path}: written by a sweep with config_hash {header['config_hash']}, "
                f"this sweep has {self.config_hash}; rerun with the same settings or delete it"
            )
        done, torn = [], False
        for lineno, line in lines[1:]:
            try:
                done.append(_point_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                if not (isinstance(exc, json.JSONDecodeError) and lineno == lines[-1][0]):
                    raise FormatError(f"{self.path}: not a design point ({exc!r})",
                                      location=f"line {lineno}") from None
                # An interrupted write leaves a torn final line; drop it so that
                # appended points start on a line of their own.
                with atomic_open(self.path) as f:
                    f.writelines(l + "\n" for _, l in lines[:-1])
                torn = True
        return done, torn

    @contextmanager
    def appending(self):
        """Yield ``append(point)``, which writes the point's line and flushes
        it (one caller at a time: ``sweep`` serializes its ``progress`` calls);
        a new log gets the header first. The log is deleted when the block
        completes, and kept for a resume when it fails, unless the block
        created it and appended no point: a resume would gain nothing from it,
        and its header would refuse a corrected rerun."""
        new = not os.path.exists(self.path)
        if new:
            with atomic_open(self.path) as f:
                f.write(json.dumps({"config_hash": self.config_hash}) + "\n")
        appended = False
        try:
            with open(self.path, "a", encoding="utf-8") as f:
                def append(point):
                    nonlocal appended
                    f.write(json.dumps({column: getattr(point, field)
                                        for field, column, _ in COLUMNS}, sort_keys=True) + "\n")
                    f.flush()
                    appended = True

                yield append
        except BaseException:
            if new and not appended:
                os.remove(self.path)
            raise
        os.remove(self.path)
