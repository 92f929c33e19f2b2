"""Command-line front end: ingestion, training, evaluation, sweeps, reports.

Configuration comes from an optional JSON file (--config) plus command-line
flags; flags win. Every emitted artifact records the tool version, the
master seed and a hash of the effective configuration. With --deterministic
the timestamp line is suppressed so reruns are byte-identical. All outputs
are written to a temp file and renamed into place on success.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import threading
import time

import numpy as np

from . import __version__
from . import am as am_mod
from . import encoders, explorer, hwmodel
from .am import BlockConfig
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    HdtcamError,
    InvalidStateError,
    NoFeasiblePointError,
    atomic_open,
    load_json,
    open_text,
)


def _error_code(exc: Exception) -> str:
    for cls, code in (
        (FormatError, "E-FORMAT"),
        (ConfigError, "E-CONFIG"),
        (DimensionMismatchError, "E-DIMENSION"),
        (DegenerateInputError, "E-DEGENERATE"),
        (NoFeasiblePointError, "E-INFEASIBLE"),
        (InvalidStateError, "E-STATE"),
        (FileNotFoundError, "E-IO"),
        (OSError, "E-IO"),
        (json.JSONDecodeError, "E-FORMAT"),
        (HdtcamError, "E-USAGE"),
        (ValueError, "E-USAGE"),
    ):
        if isinstance(exc, cls):
            return code
    return "E-INTERNAL"


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _metadata_lines(config_hash: str, seed: int, deterministic: bool) -> list:
    lines = [
        f"tool=hdtcam {__version__}",
        f"seed={seed}",
        f"config_hash={config_hash}",
    ]
    if not deterministic:
        lines.append(f"generated={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    return lines


def _load_json(path) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _effective_config(args) -> dict:
    """Config file values overridden by every flag given on the command line.

    The subcommand, --config, --deterministic and the model and output paths
    are not configuration values.
    """
    doc = _load_json(args.config) if args.config else {}
    for name, value in vars(args).items():
        if value is not None and name not in (
                "command", "func", "config", "deterministic", "output", "model"):
            doc[name] = value
    return doc


# ---------------------------------------------------------------------------
# Dataset ingestion


def _read_language_train(train_dir: str) -> dict:
    """Directory of <label>.txt corpus files -> {label: text}."""
    if not os.path.isdir(train_dir):
        raise ConfigError(f"training corpus directory not found: {train_dir}")
    texts = {}
    for name in sorted(os.listdir(train_dir)):
        if name.endswith(".txt"):
            with open_text(os.path.join(train_dir, name)) as f:
                texts[name[:-4]] = f.read()
    if not texts:
        raise ConfigError(f"no .txt corpus files in {train_dir}")
    return texts


def _read_language_queries(path: str) -> list:
    """CSV of label,text rows -> [(text, label, row name)]. Text may contain commas."""
    queries = []
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "," not in line:
                raise FormatError(f"{path}: expected 'label,text'", location=f"row {lineno}")
            label, text = line.split(",", 1)
            if lineno == 1 and label.strip().lower() == "label":
                continue
            queries.append((text, label.strip(), f"query in {path} row {lineno}"))
    if not queries:
        raise ConfigError(f"{path}: no query rows found")
    return queries


def _task(cfg: dict, meta: dict | None = None) -> encoders.Task:
    """The task set-up from the config, falling back to a model's metadata.

    Fills the effective item and tie seeds into ``cfg``, so they are part of
    its hash.
    """
    meta = meta or {}
    task = encoders.Task(
        cfg.get("task") or meta.get("task"),
        cfg.get("item_seed", meta.get("item_seed")),
        cfg.get("tie_seed", meta.get("tie_seed")),
        cfg.get("ngram"),
        cfg.get("threshold"),
    )
    cfg.setdefault("item_seed", task.item_seed)
    cfg.setdefault("tie_seed", task.tie_seed)
    return task


def _data_path(cfg: dict, name: str):
    """``cfg[name]``; E-CONFIG naming the flag that sets it when it is absent."""
    path = cfg.get(name)
    if path is None:
        raise ConfigError(f"missing --{name.replace('_', '-')} (or {name!r} in --config)")
    return path


def _train_data(task: encoders.Task, cfg: dict):
    if task.kind == "language":
        return _read_language_train(_data_path(cfg, "train_dir"))
    if task.kind == "mnist":
        return encoders.load_mnist(_data_path(cfg, "train_images"),
                                   _data_path(cfg, "train_labels"))
    return encoders.load_hypervector_csv(_data_path(cfg, "train_csv"))


def _query_data(task: encoders.Task, cfg: dict):
    """(encoder input, labels, names of the texts or None) of the task's query set."""
    if task.kind == "language":
        texts, labels, names = zip(*_read_language_queries(_data_path(cfg, "queries")))
        return list(texts), list(labels), names
    if task.kind == "mnist":
        images, labels = encoders.load_mnist(_data_path(cfg, "test_images"),
                                             _data_path(cfg, "test_labels"))
        return images, [str(int(c)) for c in labels], None
    labeled = encoders.load_hypervector_csv(_data_path(cfg, "test_csv"))
    return [hv for hv, _ in labeled.items], [label for _, label in labeled.items], None


def _sweep_dataset(task: encoders.Task, cfg: dict, dimension: int):
    """(memory, queries, labels); queries go on with the training's tie stream."""
    memory, im, tie = task.train(_train_data(task, cfg), dimension)
    data, labels, names = _query_data(task, cfg)
    return memory, task.encode(data, im, tie, names), labels


def _load_catalog(path) -> hwmodel.Catalog:
    """The tables in ``path``, or the built-in ones without a path."""
    return hwmodel.load_hw_tables(path) if path else hwmodel.default_catalog()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    task = _task(cfg)
    dimension = int(cfg.get("dimension", 10000))
    if dimension < 1:
        raise ConfigError(f"dimension must be >= 1, got {dimension}")
    started = time.perf_counter()
    memory, _im, _tie = task.train(_train_data(task, cfg), dimension)
    elapsed = time.perf_counter() - started
    meta = {
        "tool": f"hdtcam {__version__}",
        "task": task.kind,
        "seed": int(cfg.get("seed", 0)),
        "item_seed": task.item_seed,
        "tie_seed": task.tie_seed,
        "config_hash": _config_hash(cfg),
    }
    am_mod.save_model(args.output, memory, seed_metadata=meta)
    print(f"trained {len(memory)} classes at dimension {memory.dimension} "
          f"in {elapsed:.2f} s -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    cfg = _effective_config(args)
    memory, meta = am_mod.load_model(args.model)
    task = _task(cfg, meta)
    data, labels, names = _query_data(task, cfg)
    im = task.item_memory(memory.dimension, data)
    queries = task.encode(data, im, task.tie_stream(memory.dimension), names)
    if queries.shape[1] != memory.dimension:
        raise DimensionMismatchError(
            f"queries have dimension {queries.shape[1]}, model has {memory.dimension}"
        )

    technology = cfg.get("technology")
    seed = int(cfg.get("seed", 0))
    if technology:
        voltage = float(cfg.get("voltage", 0.7))
        block_size = int(cfg.get("block_size", 15))
        entry = _load_catalog(cfg.get("hw_tables")).get(technology, voltage, block_size)
        precision = int(cfg.get("precision", entry.latency.precision))
        point = explorer.evaluate(
            memory, queries, labels,
            BlockConfig(memory.dimension, block_size, precision),
            hw=entry,
            replicas=int(cfg.get("replicas", 1)),
            trials=int(cfg.get("trials", 10)),
            seed=seed,
            technology=technology,
            voltage=voltage,
        )
        print(f"accuracy {point.accuracy_mean:.4f} ± {point.accuracy_std:.4f} "
              f"(loss {100 * point.accuracy_loss:.3f} % vs ideal), "
              f"energy {point.energy_pj:.3f} pJ/query, "
              f"latency {point.latency_ns:.3f} ns/query")
    else:
        block_size = cfg.get("block_size")
        if block_size is not None:
            precision = int(cfg.get("precision", min(block_size, 7)))
            point = explorer.evaluate(
                memory, queries, labels,
                BlockConfig(memory.dimension, int(block_size), precision),
                hw=None, trials=1, seed=seed,
            )
        else:
            acc = explorer.ideal_accuracy(memory, queries, labels)
            point = explorer.DesignPoint(
                technology="", voltage=0.0, block_size=memory.dimension,
                precision=memory.dimension, dimension=memory.dimension,
                replicas=1, trials=1, accuracy_mean=acc, accuracy_std=0.0,
                accuracy_loss=0.0, energy_pj=0.0, latency_ns=0.0,
            )
        print(f"accuracy {point.accuracy_mean:.4f} over {len(labels)} queries")
    if args.output:
        lines = _metadata_lines(_config_hash(cfg), seed, args.deterministic)
        with atomic_open(args.output) as f:
            explorer.write_results_csv([point], f, metadata_lines=lines)
        print(f"wrote {args.output}")
    return 0


def _pareto_path(output: str) -> str:
    root, ext = os.path.splitext(output)
    return f"{root}_pareto{ext or '.csv'}"


def _resume_points(partial_path: str, config_hash: str) -> list:
    """Points of an interrupted sweep, if its partial file's header carries
    this sweep's configuration hash; E-CONFIG otherwise, E-FORMAT naming the
    line for a body line (other than a torn final one) that is not a point."""
    with open_text(partial_path) as f:
        lines = [(n, line) for n, line in enumerate(f.read().splitlines(), start=1)
                 if line.strip()]
    try:
        header = json.loads(lines[0][1]) if lines else None
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or "config_hash" not in header:
        raise ConfigError(
            f"{partial_path}: no configuration header (written by an older hdtcam); "
            "delete it to start the sweep over"
        )
    if header["config_hash"] != config_hash:
        raise ConfigError(
            f"{partial_path}: written by a sweep with config_hash {header['config_hash']}, "
            f"this sweep has {config_hash}; rerun with the same settings or delete it"
        )
    done = []
    for lineno, line in lines[1:]:
        try:
            done.append(explorer.point_from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if not (isinstance(exc, json.JSONDecodeError) and lineno == lines[-1][0]):
                raise FormatError(f"{partial_path}: not a design point ({exc!r})",
                                  location=f"line {lineno}") from None
            # An interrupted write leaves a torn final line; drop it so that
            # appended points start on a line of their own.
            with atomic_open(partial_path) as f:
                f.writelines(l + "\n" for _, l in lines[:-1])
            print("resuming: skipped a torn final line")
    print(f"resuming: {len(done)} points already evaluated")
    return done


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    task = _task(cfg)
    axes = {f.name for f in dataclasses.fields(explorer.SweepSpace)}
    space = explorer.SweepSpace(**{k: v for k, v in cfg.items() if k in axes})
    partial_path = f"{args.output}.partial.jsonl"
    # Worker count does not change results: the resume header and the metadata
    # line hash the configuration without it.
    config_hash = _config_hash({k: v for k, v in cfg.items() if k != "jobs"})
    done = _resume_points(partial_path, config_hash) if os.path.exists(partial_path) else []
    catalog = _load_catalog(cfg.get("hw_tables"))
    datasets = {d: _sweep_dataset(task, cfg, d) for d in space.dimensions}

    if not os.path.exists(partial_path):
        with atomic_open(partial_path) as f:
            f.write(json.dumps({"config_hash": config_hash}) + "\n")
    partial = open(partial_path, "a", encoding="utf-8")
    total = len(list(space.configurations()))
    lock = threading.Lock()

    def progress(point):
        with lock:
            partial.write(json.dumps(explorer.point_to_dict(point), sort_keys=True) + "\n")
            partial.flush()
            print(f"[sweep] {point.technology} "
                  f"{point.voltage:g} V N={point.block_size} P={point.precision} "
                  f"D={point.dimension} r={point.replicas}: "
                  f"loss {100 * point.accuracy_loss:.3f} %, {point.energy_pj:.2f} pJ")

    try:
        points = done + explorer.sweep(
            space, datasets, catalog,
            jobs=int(cfg.get("jobs") or 1),
            done=done, progress=progress,
        )
    finally:
        partial.close()

    points = explorer.flag_pareto(points)
    lines = _metadata_lines(config_hash, space.seed, args.deterministic)
    front = [p for p in points if p.pareto]
    for path, rows in ((args.output, points), (_pareto_path(args.output), front)):
        with atomic_open(path) as f:
            explorer.write_results_csv(rows, f, metadata_lines=lines)
    os.remove(partial_path)
    print(f"swept {total} configurations; {len(front)} on the Pareto front")
    print(f"wrote {args.output} and {_pareto_path(args.output)}")
    return 0


def cmd_pareto(args) -> int:
    points, meta = explorer.read_results_csv(args.input)
    points = explorer.flag_pareto(points)
    front = [p for p in points if p.pareto]
    with atomic_open(args.output) as f:
        explorer.write_results_csv(front, f, metadata_lines=meta)
    print(f"{len(front)} of {len(points)} points on the Pareto front -> {args.output}")
    return 0


def _select_entries(catalog, args):
    entries = list(catalog)
    if args.technology:
        entries = [e for e in entries if e.latency.technology == args.technology]
    if args.voltage is not None:
        entries = [e for e in entries if abs(e.latency.voltage - args.voltage) < 1e-9]
    if args.block_size is not None:
        entries = [e for e in entries if e.latency.block_size == args.block_size]
    if not entries:
        raise ConfigError("no hardware table entries match the given filters")
    return sorted(entries, key=lambda e: (e.latency.technology, e.latency.voltage,
                                          e.latency.block_size))


def cmd_hwmodel(args) -> int:
    entries = _select_entries(_load_catalog(args.tables), args)
    out = []
    if args.action == "validate":
        # Structural invariants are enforced on construction; re-check the
        # distributional ones here and report per entry.
        for e in entries:
            cm = hwmodel.confusion_from_latency(e.latency)
            row_err = float(np.abs(cm.sum(axis=1) - 1.0).max())
            if not row_err <= 1e-9:
                raise ConfigError(
                    f"tables[{e.latency.technology}/{e.latency.voltage}/"
                    f"{e.latency.block_size}]: confusion rows sum to 1±{row_err:.2e}"
                )
        out.append(f"ok: {len(entries)} table entries pass all invariants")
    elif args.action == "confusion":
        for e in entries:
            lm = e.latency
            out.append(f"# {lm.technology} {lm.voltage:g} V N={lm.block_size} "
                       f"P={lm.precision}")
            cm = hwmodel.confusion_from_latency(lm)
            for row in cm:
                out.append(",".join(f"{x:.6f}" for x in row))
    else:  # errorprob
        out.append("technology,voltage_V,block_size,distance,error_probability")
        for e in entries:
            lm = e.latency
            cm = hwmodel.confusion_from_latency(lm)
            for h in range(lm.precision + 1):
                out.append(f"{lm.technology},{lm.voltage:g},{lm.block_size},"
                           f"{h},{hwmodel.error_probability(cm, h):.6f}")
    text = "\n".join(out) + "\n"
    if args.output:
        with atomic_open(args.output) as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_export(args) -> int:
    if args.what == "hw-tables":
        catalog = _load_catalog(args.tables)
        hwmodel.save_hw_tables(args.output, catalog)
        print(f"wrote {len(catalog)} table entries -> {args.output}")
    elif args.what == "model-csv":
        if not args.model:
            raise ConfigError("export model-csv requires --model")
        memory, _meta = am_mod.load_model(args.model)
        labeled = encoders.LabeledSet(dimension=memory.dimension)
        for label, row in zip(memory.labels, memory.class_matrix):
            labeled.add(row, label)
        encoders.save_hypervector_csv(args.output, labeled)
        print(f"wrote {len(memory)} class vectors -> {args.output}")
    else:
        raise ConfigError(f"unknown export target {args.what!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _str_list(text):
    return [x for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdtcam",
        description="TCAM-based hyperdimensional computing simulator and "
                    "design-space explorer",
    )
    parser.add_argument("--version", action="version", version=f"hdtcam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps so reruns are byte-identical")

    def add_data_flags(p, train=True, test=True):
        p.add_argument("--task", choices=sorted(encoders.TASK_SEEDS))
        if train:
            p.add_argument("--train-dir", dest="train_dir",
                           help="language: directory of <label>.txt corpora")
            p.add_argument("--train-images", dest="train_images", help="mnist: IDX images")
            p.add_argument("--train-labels", dest="train_labels", help="mnist: IDX labels")
            p.add_argument("--train-csv", dest="train_csv", help="csv: label,bits rows")
        if test:
            p.add_argument("--queries", help="language: CSV of label,text query rows")
            p.add_argument("--test-images", dest="test_images", help="mnist: IDX images")
            p.add_argument("--test-labels", dest="test_labels", help="mnist: IDX labels")
            p.add_argument("--test-csv", dest="test_csv", help="csv: label,bits rows")
        p.add_argument("--ngram", type=int, default=None)
        p.add_argument("--threshold", type=int, default=None)
        p.add_argument("--item-seed", dest="item_seed", type=int, default=None)
        p.add_argument("--tie-seed", dest="tie_seed", type=int, default=None)

    p = sub.add_parser("train", help="encode a training set and persist the model")
    add_common(p)
    add_data_flags(p, test=False)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--output", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model, optionally under a hardware model")
    add_common(p)
    add_data_flags(p, train=False)
    p.add_argument("--model", required=True)
    p.add_argument("--hw-tables", dest="hw_tables", help="JSON tables (default: built-in)")
    p.add_argument("--technology", choices=hwmodel.TECHNOLOGIES)
    p.add_argument("--voltage", type=float, default=None)
    p.add_argument("--block-size", dest="block_size", type=int, default=None)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--output", help="optional results CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate the full design-space cross product")
    add_common(p)
    add_data_flags(p)
    p.add_argument("--hw-tables", dest="hw_tables")
    p.add_argument("--technologies", type=_str_list, default=None)
    p.add_argument("--voltages", type=_float_list, default=None)
    p.add_argument("--block-sizes", dest="block_sizes", type=_int_list, default=None)
    p.add_argument("--precisions", type=_int_list, default=None)
    p.add_argument("--dimensions", type=_int_list, default=None)
    p.add_argument("--replicas", type=_int_list, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="parallel evaluations")
    p.add_argument("--output", required=True, help="results CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pareto", help="extract the Pareto front from a results CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("hwmodel", help="inspect or validate hardware tables")
    p.add_argument("action", choices=("validate", "confusion", "errorprob"))
    p.add_argument("--tables", help="JSON tables (default: built-in)")
    p.add_argument("--technology", choices=hwmodel.TECHNOLOGIES)
    p.add_argument("--voltage", type=float, default=None)
    p.add_argument("--block-size", dest="block_size", type=int, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_hwmodel)

    p = sub.add_parser("export", help="export hardware tables or model vectors")
    p.add_argument("what", choices=("hw-tables", "model-csv"))
    p.add_argument("--tables", help="source tables for hw-tables (default: built-in)")
    p.add_argument("--model", help="source model for model-csv")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parseable failure
        print(f"error: {_error_code(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
