"""Command-line front end for training, evaluation, sweeps and reports.

Configuration comes from an optional JSON file (--config) plus command-line
flags; flags win. Every emitted artifact records the tool version, the
master seed and a hash of the effective configuration. With --deterministic
the timestamp line is suppressed so reruns are byte-identical. All outputs
are written to a temp file and renamed into place on success.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import am as am_mod
from . import encoders, explorer, hwmodel
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    HdtcamError,
    InvalidStateError,
    atomic_open,
    load_json,
    setting,
)


def _error_code(exc: Exception) -> str:
    for cls, code in (
        (FormatError, "E-FORMAT"),
        (ConfigError, "E-CONFIG"),
        (DimensionMismatchError, "E-DIMENSION"),
        (DegenerateInputError, "E-DEGENERATE"),
        (InvalidStateError, "E-STATE"),
        (OSError, "E-IO"),
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


def _effective_config(args) -> dict:
    """Config file values overridden by every flag given on the command line.

    The subcommand, --config, --deterministic and the model and output paths
    are not configuration values.
    """
    doc = load_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    for name, value in vars(args).items():
        if value is not None and name not in (
                "command", "func", "config", "deterministic", "output", "model"):
            doc[name] = value
    return doc


def _task(cfg: dict, meta: dict | None = None) -> encoders.Task:
    """The task set-up from the config, falling back to a model's metadata.

    Fills the effective item and tie seeds into ``cfg``, so they are part of
    its hash.
    """
    meta = meta or {}
    task = encoders.Task(
        setting(cfg, "task", str, setting(meta, "task", str)),
        setting(cfg, "item_seed", int, setting(meta, "item_seed", int)),
        setting(cfg, "tie_seed", int, setting(meta, "tie_seed", int)),
        setting(cfg, "ngram", int),
        setting(cfg, "threshold", int),
    )
    cfg.setdefault("item_seed", task.item_seed)
    cfg.setdefault("tie_seed", task.tie_seed)
    return task


def _load_catalog(path) -> hwmodel.Catalog:
    """The tables in ``path``, or the built-in ones without a path."""
    return hwmodel.load_hw_tables(path) if path else hwmodel.default_catalog()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    task = _task(cfg)
    dimension = setting(cfg, "dimension", int, 10000)
    if dimension < 1:
        raise ConfigError(f"dimension must be >= 1, got {dimension}")
    started = time.perf_counter()
    memory = task.train_split(cfg, dimension)
    elapsed = time.perf_counter() - started
    meta = {
        "tool": f"hdtcam {__version__}",
        "task": task.kind,
        "seed": setting(cfg, "seed", int, 0),
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
    queries, labels = task.encode_split(cfg, memory.dimension)

    seed = setting(cfg, "seed", int, 0)
    technology = setting(cfg, "technology", str)
    if technology or "block_size" in cfg:
        # Blocked inference: under the technology's hardware table, else noise-free.
        block_size = setting(cfg, "block_size", int, 15)
        hw = (_load_catalog(setting(cfg, "hw_tables", str)).get(
            technology, setting(cfg, "voltage", float, 0.7), block_size) if technology else None)
        precision = setting(cfg, "precision", int, hw.precision if hw else min(block_size, 7))
        point = explorer.evaluate(
            memory, queries, labels,
            am_mod.BlockConfig(memory.dimension, block_size, precision),
            hw=hw,
            replicas=setting(cfg, "replicas", int, 1) if hw else 1,
            trials=setting(cfg, "trials", int, 10) if hw else 1,
            seed=seed,
        )
    else:
        acc = explorer.ideal_accuracy(memory, queries, labels)
        point = explorer.DesignPoint(
            technology="", voltage=0.0, block_size=memory.dimension,
            precision=memory.dimension, dimension=memory.dimension,
            replicas=1, trials=1, accuracy_mean=acc, accuracy_std=0.0,
            accuracy_loss=0.0, energy_pj=0.0, latency_ns=0.0,
        )
    if technology:
        print(f"accuracy {point.accuracy_mean:.4f} ± {point.accuracy_std:.4f} "
              f"(loss {100 * point.accuracy_loss:.3f} % vs ideal), "
              f"energy {point.energy_pj:.3f} pJ/query, "
              f"latency {point.latency_ns:.3f} ns/query")
    else:
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


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    task = _task(cfg)
    space = explorer.SweepSpace(**{name: setting(cfg, name, kind)
                                   for name, kind in explorer.SWEEP_FIELDS if name in cfg})
    jobs = setting(cfg, "jobs", int, 1)
    # Worker count does not change results: the resume header and the metadata
    # line hash the configuration without it.
    config_hash = _config_hash({k: v for k, v in cfg.items() if k != "jobs"})
    log = explorer.SweepLog(args.output, config_hash)
    done = []
    if (resumed := log.read()) is not None:
        done, torn = resumed
        if torn:
            print("resuming: skipped a torn final line")
        print(f"resuming: {len(done)} points already evaluated")
    catalog = _load_catalog(setting(cfg, "hw_tables", str))
    datasets = {}
    for d in space.dimensions:
        memory = task.train_split(cfg, d)
        datasets[d] = (memory, *task.encode_split(cfg, d))

    with log.appending() as append:
        def progress(point):
            append(point)
            print(f"[sweep] {point.technology} "
                  f"{point.voltage:g} V N={point.block_size} P={point.precision} "
                  f"D={point.dimension} r={point.replicas}: "
                  f"loss {100 * point.accuracy_loss:.3f} %, {point.energy_pj:.2f} pJ")

        points = explorer.flag_pareto(done + explorer.sweep(
            space, datasets, catalog, jobs=jobs, done=done, progress=progress))
        lines = _metadata_lines(config_hash, space.seed, args.deterministic)
        front = [p for p in points if p.pareto]
        for path, rows in ((args.output, points), (_pareto_path(args.output), front)):
            with atomic_open(path) as f:
                explorer.write_results_csv(rows, f, metadata_lines=lines)
    print(f"swept {len(list(space.configurations()))} configurations; "
          f"{len(front)} on the Pareto front")
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


def cmd_hwmodel(args) -> int:
    entries = _load_catalog(args.tables).select(args.technology, args.voltage, args.block_size)
    out = []
    if args.action == "validate":
        # Structural invariants are enforced on construction; re-check the
        # distributional ones here and report per entry.
        for e in entries:
            cm = hwmodel.confusion_from_latency(e)
            row_err = float(np.abs(cm.sum(axis=1) - 1.0).max())
            if not row_err <= 1e-9:
                raise ConfigError(
                    f"tables[{e.technology}/{e.voltage}/{e.block_size}]: "
                    f"confusion rows sum to 1±{row_err:.2e}"
                )
        out.append(f"ok: {len(entries)} table entries pass all invariants")
    elif args.action == "confusion":
        for e in entries:
            out.append(f"# {e.technology} {e.voltage:g} V N={e.block_size} P={e.precision}")
            cm = hwmodel.confusion_from_latency(e)
            for row in cm:
                out.append(",".join(f"{x:.6f}" for x in row))
    else:  # errorprob
        out.append("technology,voltage_V,block_size,distance,error_probability")
        for e in entries:
            cm = hwmodel.confusion_from_latency(e)
            for h in range(e.precision + 1):
                out.append(f"{e.technology},{e.voltage:g},{e.block_size},"
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
