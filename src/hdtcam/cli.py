"""Command-line front end for training, evaluation, sweeps and reports.

Settings come from an optional JSON file (--config) and command-line flags,
both declared once in SETTINGS; flags win. Every emitted artifact records
the tool version, the master seed and a hash of the effective configuration.
With --deterministic the timestamp line is suppressed so reruns are
byte-identical. Outputs are written to a temp file renamed into place.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import typing

from . import __version__
from . import am as am_mod
from . import encoders, explorer, hwmodel
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    HdtcamError,
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
        (OSError, "E-IO"),
        (HdtcamError, "E-USAGE"),
        (ValueError, "E-USAGE"),
    ):
        if isinstance(exc, cls):
            return code
    return "E-INTERNAL"


def _config_hash(doc: dict, task: encoders.Task) -> str:
    """Hash of the merged settings as given (an integer given for a number
    stays one) with the task's effective seeds, and without the worker count,
    which changes no result."""
    doc = {"item_seed": task.item_seed, "tie_seed": task.tie_seed, **doc}
    doc.pop("jobs", None)
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


class Setting(typing.NamedTuple):
    """A setting of a subcommand that reads --config: its JSON type as
    ``errors.setting`` reads it, its help, and ``needs``, the settings of
    which the run must give one for this setting to be read (none: always)."""

    kind: typing.Any
    help: str
    needs: tuple = ()


# eval's modes beyond the ideal run, each named by the settings that select
# it: blocked inference (a block size, or a technology) and the hardware
# model (a technology).
_BLOCKED = ("block_size", "technology")
_HARDWARE = ("technology",)

# The settings of each subcommand that reads --config. A setting x_y is also
# the flag --x-y, a list given comma-separated; a flag and its config key are
# one setting.
_TASK = {
    "task": Setting(str, f"one of {', '.join(sorted(encoders.TASK_SEEDS))}"),
    "ngram": Setting(int, f"language: n-gram size in [1, {encoders.MAX_NGRAM}] (default 4)"),
    "threshold": Setting(int, "mnist: pixel threshold in [1, 255] (default 128)"),
    "item_seed": Setting(int, "item memory seed (default: the task's)"),
    "tie_seed": Setting(int, "majority tie-break seed (default: the task's)"),
}
_TRAIN_FILES = {
    "train_dir": Setting(str, "language: directory of <label>.txt corpora"),
    "train_images": Setting(str, "mnist: IDX images"),
    "train_labels": Setting(str, "mnist: IDX labels"),
    "train_csv": Setting(str, "csv: label,bits rows"),
}
_TEST_FILES = {
    "queries": Setting(str, "language: CSV of label,text query rows"),
    "test_images": Setting(str, "mnist: IDX images"),
    "test_labels": Setting(str, "mnist: IDX labels"),
    "test_csv": Setting(str, "csv: label,bits rows"),
}
_SEED = {"seed": Setting(int, "master seed (default 0)")}
SETTINGS = {
    "train": {**_TASK, **_TRAIN_FILES, **_SEED,
              "dimension": Setting(int, "hypervector dimension (default 10000)")},
    "eval": {**_TASK, **_TEST_FILES, **_SEED,
             "hw_tables": Setting(str, "JSON tables (default: built-in)", _HARDWARE),
             "technology": Setting(str, f"one of {', '.join(hwmodel.TECHNOLOGIES)}; "
                                        "without it and --block-size, noise-free", _HARDWARE),
             "voltage": Setting(float, "supply voltage in V (default 0.7)", _HARDWARE),
             "block_size": Setting(int, "block size N (default 15)", _BLOCKED),
             "precision": Setting(int, "precision P (default: the table's, else min(N, 7))",
                                  _BLOCKED),
             "replicas": Setting(int, "odd replica count (default 1)", _HARDWARE),
             "trials": Setting(int, "noisy trials (default 10)", _HARDWARE)},
    "sweep": {**_TASK, **_TRAIN_FILES, **_TEST_FILES,
              "hw_tables": Setting(str, "JSON tables (default: built-in)"),
              **{name: Setting(kind, ("comma-separated; " if isinstance(kind, list) else "")
                               + f"default {getattr(explorer.SweepSpace, name)}")
                 for name, kind in explorer.SWEEP_FIELDS},
              "jobs": Setting(int, "parallel evaluations (default 1)")},
}


def _effective_config(args) -> tuple:
    """(settings, document): the --config file overridden by every flag given
    on the command line, each value typed by ``errors.setting``, and the
    merged values as given, which ``_config_hash`` hashes. A config key that
    is not one of the subcommand's settings is ConfigError naming it, and so
    is every setting given without one of the settings it needs."""
    doc = load_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    settings = SETTINGS[args.command]
    for key in doc:
        if key not in settings:
            raise ConfigError(f"{args.config}: {key!r} is not a setting of {args.command}")
    doc.update((name, value) for name in settings if (value := getattr(args, name)) is not None)
    cfg = {key: setting(doc, key, settings[key].kind) for key in doc}
    unread = [f"{key!r} needs " + " or ".join("--" + name.replace("_", "-") for name in needs)
              for key, (_, _, needs) in settings.items()
              if key in cfg and needs and cfg.keys().isdisjoint(needs)]
    if unread:
        raise ConfigError("; ".join(unread))
    return cfg, doc


def _task(cfg: dict, meta: dict | None = None) -> encoders.Task:
    """The task set-up from the settings, falling back to a model's metadata."""
    meta = meta or {}
    return encoders.Task(
        cfg.get("task", setting(meta, "task", str)),
        cfg.get("item_seed", setting(meta, "item_seed", int)),
        cfg.get("tie_seed", setting(meta, "tie_seed", int)),
        cfg.get("ngram"),
        cfg.get("threshold"),
    )


def _load_catalog(path) -> hwmodel.Catalog:
    """The tables in ``path``, or the built-in ones without a path."""
    return hwmodel.load_hw_tables(path) if path else hwmodel.default_catalog()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    cfg, doc = _effective_config(args)
    task = _task(cfg)
    dimension = cfg.get("dimension", 10000)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    started = time.perf_counter()
    items, labels, names = task.read(cfg, "train")
    memory = task.train(items, labels, dimension, names)
    elapsed = time.perf_counter() - started
    meta = {
        "tool": f"hdtcam {__version__}",
        "task": task.kind,
        "seed": cfg.get("seed", 0),
        "item_seed": task.item_seed,
        "tie_seed": task.tie_seed,
        "config_hash": _config_hash(doc, task),
    }
    am_mod.save_model(args.output, memory, seed_metadata=meta)
    print(f"trained {len(memory)} classes at dimension {memory.dimension} "
          f"in {elapsed:.2f} s -> {args.output}")
    return 0


def cmd_eval(args) -> int:
    cfg, doc = _effective_config(args)
    memory, meta = am_mod.load_model(args.model)
    task = _task(cfg, meta)
    seed = cfg.get("seed", 0)
    technology = cfg.get("technology")
    hardware = technology is not None
    plan = explorer.plan_eval(
        lambda: _load_catalog(cfg.get("hw_tables")), memory.dimension, technology,
        cfg.get("voltage", 0.7), cfg.get("block_size", 15 if hardware else None),
        cfg.get("precision"), cfg.get("replicas", 1), cfg.get("trials", 10 if hardware else 1),
        seed)
    items, labels, names = task.read(cfg, "test")
    queries = task.encode(items, memory.dimension, names)
    [point] = explorer.sweep(plan, {memory.dimension: (memory, queries, labels)})
    if hardware:
        print(f"accuracy {point.accuracy_mean:.4f} ± {point.accuracy_std:.4f} "
              f"(loss {100 * point.accuracy_loss:.3f} % vs ideal), "
              f"energy {point.energy_pj:.3f} pJ/query, "
              f"latency {point.latency_ns:.3f} ns/query")
    else:
        print(f"accuracy {point.accuracy_mean:.4f} over {len(labels)} queries")
    if args.output:
        lines = _metadata_lines(_config_hash(doc, task), seed, args.deterministic)
        with atomic_open(args.output) as f:
            explorer.write_results_csv([point], f, metadata_lines=lines)
        print(f"wrote {args.output}")
    return 0


def _pareto_path(output: str) -> str:
    root, ext = os.path.splitext(output)
    return f"{root}_pareto{ext or '.csv'}"


def cmd_sweep(args) -> int:
    cfg, doc = _effective_config(args)
    task = _task(cfg)
    space = explorer.SweepSpace(**{n: cfg[n] for n, _ in explorer.SWEEP_FIELDS if n in cfg})
    jobs = cfg.get("jobs", 1)
    explorer.check_jobs(jobs)
    plan = explorer.plan_sweep(space, _load_catalog(cfg.get("hw_tables")))
    config_hash = _config_hash(doc, task)
    log = explorer.SweepLog(args.output, config_hash)
    done = []
    if (resumed := log.read()) is not None:
        done, torn = resumed
        if torn:
            print("resuming: skipped a torn final line")
        print(f"resuming: {len(done)} points already evaluated")
    # Each split is read once. The queries of a dimension are encoded after its
    # training, going on with its tie stream; the training split is not kept.
    train_items, train_labels, train_names = task.read(cfg, "train")
    items, labels, names = task.read(cfg, "test")
    datasets = {}
    for d in space.dimensions:
        memory = task.train(train_items, train_labels, d, train_names)
        datasets[d] = (memory, task.encode(items, d, names), labels)
    del train_items, train_labels, train_names

    with log.appending() as append:
        def progress(point):
            append(point)
            print(f"[sweep] {point.technology} "
                  f"{point.voltage:g} V N={point.block_size} P={point.precision} "
                  f"D={point.dimension} r={point.replicas}: "
                  f"loss {100 * point.accuracy_loss:.3f} %, {point.energy_pj:.2f} pJ")

        points = explorer.flag_pareto(done + explorer.sweep(
            plan, datasets, jobs=jobs, done=done, progress=progress))
        lines = _metadata_lines(config_hash, space.seed, args.deterministic)
        front = [p for p in points if p.pareto]
        for path, rows in ((args.output, points), (_pareto_path(args.output), front)):
            with atomic_open(path) as f:
                explorer.write_results_csv(rows, f, metadata_lines=lines)
    print(f"swept {len(plan)} configurations; "
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
        # Every invariant is checked when a table is built, so tables that loaded pass.
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
    else:  # model-csv; argparse refuses any other target
        if not args.model:
            raise ConfigError("export model-csv requires --model")
        memory, _meta = am_mod.load_model(args.model)
        labeled = encoders.LabeledSet(dimension=memory.dimension)
        for label, row in zip(memory.labels, memory.class_matrix):
            labeled.add(row, label)
        encoders.save_hypervector_csv(args.output, labeled)
        print(f"wrote {len(memory)} class vectors -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _flag_type(kind):
    """The argparse type of a setting's flag: its JSON type, a list of one
    given comma-separated."""
    if not isinstance(kind, list):
        return kind

    def items(text):
        return [kind[0](x) for x in text.split(",") if x]
    items.__name__ = f"comma-separated {kind[0].__name__}"
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdtcam",
        description="TCAM-based hyperdimensional computing simulator and "
                    "design-space explorer",
    )
    parser.add_argument("--version", action="version", version=f"hdtcam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, about, func, paths in (
        ("train", "encode a training set and persist the model", cmd_train,
         {"--output": {"required": True, "help": "model JSON path"}}),
        ("eval", "evaluate a model, optionally under a hardware model", cmd_eval,
         {"--model": {"required": True}, "--output": {"help": "optional results CSV"}}),
        ("sweep", "evaluate the full design-space cross product", cmd_sweep,
         {"--output": {"required": True, "help": "results CSV path"}}),
    ):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps so reruns are byte-identical")
        for name, entry in SETTINGS[command].items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=_flag_type(entry.kind),
                           help=entry.help)
        for flag, options in paths.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)

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
