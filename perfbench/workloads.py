"""Workload definitions, seeded input generation and output checks.

A workload is a fixed sequence of ``hdtcam`` CLI commands run on inputs
generated from ``hdtcam.synth``. Every command is one operation; it fails
when it exits nonzero or when its output does not match the reference
recorded in ``reference.json``.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import shutil
import statistics

# Input sizes. "full" is what the benchmark measures; "tiny" exists only so
# the self-test can exercise every code path in seconds.
PROFILES = {
    "full": {"languages": 8, "train_chars": 100_000, "queries_per_language": 100,
             "dimension": 10_000, "trials": 1},
    "tiny": {"languages": 2, "train_chars": 3_000, "queries_per_language": 10,
             "dimension": 512, "trials": 1},
}

# References exist for this many input seeds; --seed selects one of them.
BANK_SIZE = 10

WHY = {
    "train-eval-language":
        "first thing a user runs: n-gram encoding dominates and no hardware "
        "noise is drawn, so encoder and distance-kernel changes show here",
    "sweep-voltage":
        "headline energy-vs-loss Pareto sweep on pre-encoded CSV: distances, "
        "Gaussian sampling and argmin dominate; encoding is bypassed",
    "sweep-replicas":
        "Fe-FinFET median-of-r replica sweep: sampling cost grows with r and "
        "peak memory is highest, so r-dependent sampler changes show here",
}

SWEEP_AXES = {
    "sweep-voltage": ["--technologies", "sram", "--voltages", "0.5,0.7,1.0",
                      "--block-sizes", "7,15", "--precisions", "7", "--replicas", "1"],
    "sweep-replicas": ["--technologies", "fefinfet", "--voltages", "0.7",
                       "--block-sizes", "15", "--precisions", "7", "--replicas", "1,3,7"],
}

# Statistical tolerance for noisy outputs. Each point may differ from its
# reference mean by Z_TOLERANCE standard errors of the difference (see
# seed_reference), plus a floor of one query of accuracy or the latency's
# printed rounding. Over the k points of a run, the sum of the signed
# distances in standard errors (floor taken off) may reach
# Z_TOLERANCE * sqrt(k): the points draw from independent per-point seeds,
# so a bias shared by every point shows sqrt(k) times sooner there.
Z_TOLERANCE = 6.0
ACCURACY_FLOOR_QUERIES = 1
LATENCY_FLOOR_NS = 2e-6

POINT_KEY = ("technology", "voltage_V", "block_size", "precision", "dimension", "replicas")


def commands(workload: str, profile: dict, seed: int, rep_dir: str) -> list:
    """The CLI argument lists of one repetition, with outputs under ``rep_dir``."""
    if workload == "train-eval-language":
        model = f"{rep_dir}/model.json"
        evaluate = ["eval", "--model", model, "--task", "language",
                    "--queries", "queries.csv", "--deterministic"]
        return [
            ["train", "--task", "language", "--train-dir", "corpora",
             "--dimension", str(profile["dimension"]), "--output", model],
            evaluate + ["--output", f"{rep_dir}/eval_ideal.csv"],
            evaluate + ["--block-size", "15", "--precision", "7",
                        "--output", f"{rep_dir}/eval_blocked.csv"],
        ]
    results = f"{rep_dir}/results.csv"
    return [
        ["sweep", "--task", "csv", "--train-csv", "train.csv", "--test-csv", "test.csv",
         *SWEEP_AXES[workload], "--dimensions", str(profile["dimension"]),
         "--trials", str(profile["trials"]), "--jobs", "1", "--seed", str(seed),
         "--deterministic", "--output", results],
        ["pareto", "--input", results, "--output", f"{rep_dir}/front.csv"],
    ]


def primary_outputs(workload: str, rep_dir: str) -> list:
    """The file each command of one repetition writes, in command order."""
    if workload == "train-eval-language":
        return [f"{rep_dir}/{name}" for name in ("model.json", "eval_ideal.csv", "eval_blocked.csv")]
    return [f"{rep_dir}/results.csv", f"{rep_dir}/front.csv"]


# ---------------------------------------------------------------------------
# Inputs


def input_kind(workload: str) -> str:
    """Workloads of one kind read the same generated files."""
    return "text" if workload == "train-eval-language" else "csv"


def generate_inputs(workdir: str, workload: str, profile: dict, input_seed: int) -> None:
    """Write the workload's input files under ``workdir``."""
    from hdtcam import encoders, synth

    bench = synth.make_language_benchmark(
        num_languages=profile["languages"],
        train_chars=profile["train_chars"],
        queries_per_language=profile["queries_per_language"],
        seed=input_seed,
    )
    if input_kind(workload) == "text":
        os.makedirs(os.path.join(workdir, "corpora"))
        for label, text in bench.train_texts.items():
            _write(workdir, f"corpora/{label}.txt", text)
        _write(workdir, "queries.csv",
               "label,text\n" + "".join(f"{label},{text}\n" for text, label in bench.queries))
    else:
        memory, queries, labels = synth.encode_language_benchmark(bench, profile["dimension"])
        train = encoders.LabeledSet(dimension=memory.dimension)
        for label, row in zip(memory.labels, memory.class_matrix):
            train.add(row, label)
        test = encoders.LabeledSet(dimension=memory.dimension)
        for row, label in zip(queries, labels):
            test.add(row, label)
        encoders.save_hypervector_csv(os.path.join(workdir, "train.csv"), train)
        encoders.save_hypervector_csv(os.path.join(workdir, "test.csv"), test)


def prepare_inputs(workdir: str, cache: str, profile: str, workload: str, input_seed: int) -> str:
    """Copy the seed's generated inputs into ``workdir``; return their sha256.

    Inputs are generated once per cache directory, input kind and seed: the
    sweeps' pre-encoded CSVs take longer to make than a whole timed run.
    """
    cached = os.path.join(cache, f"{profile}-{input_kind(workload)}-{input_seed}")
    if not os.path.isdir(cached):
        tmp = f"{cached}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        generate_inputs(tmp, workload, PROFILES[profile], input_seed)
        try:
            os.rename(tmp, cached)
        except OSError:  # another process cached the same seed first
            shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(cached, workdir, dirs_exist_ok=True)
    return tree_sha256(workdir)


def _write(workdir: str, rel: str, text: str) -> None:
    with open(os.path.join(workdir, rel), "w", encoding="utf-8") as f:
        f.write(text)


def tree_sha256(workdir: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(workdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, workdir).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Output checks


def read_results_csv(path: str) -> list:
    """Rows of a results CSV as dicts of strings; ``#`` metadata lines skipped."""
    with open(path, "r", encoding="utf-8") as f:
        body = [line.rstrip("\n") for line in f if line.strip() and not line.startswith("#")]
    if not body:
        raise ValueError(f"{path}: no header")
    header = body[0].split(",")
    rows = []
    for line in body[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path}: ragged row {line!r}")
        rows.append(dict(zip(header, fields)))
    return rows


def point_key(row: dict) -> str:
    return ",".join(row[k] for k in POINT_KEY)


def pareto_keys(rows) -> set:
    """Keys of the rows no other row dominates under minimize(energy, loss)."""
    pts = [(float(r["energy_pJ"]), float(r["accuracy_loss"]), point_key(r)) for r in rows]
    return {
        key for e, l, key in pts
        if not any(e2 <= e and l2 <= l and (e2 < e or l2 < l) for e2, l2, _ in pts)
    }


def seed_reference(bank: dict, input_seed: int) -> dict:
    """One input seed's reference. Each point's per-trial standard deviation
    is the larger of the seed's own estimate (9 degrees of freedom) and the
    estimate pooled over the bank, so neither a low draw of the former nor
    a seed noisier than the average makes the tolerance too tight."""
    ref = copy.deepcopy(bank[str(input_seed)])
    for key, point in ref.get("points", {}).items():
        for sd in ("accuracy_sd", "latency_sd"):
            pooled = math.sqrt(statistics.fmean(b["points"][key][sd] ** 2 for b in bank.values()))
            point[sd] = max(point[sd], pooled)
    return ref


def standard_error(point: dict, field: str, trials: int) -> float:
    """Standard error of a ``trials``-trial run minus the reference mean."""
    sd = point[field.split("_")[0] + "_sd"]
    return sd * math.sqrt(1.0 / trials + 1.0 / point["trials"])


def noisy_fields(profile: dict) -> dict:
    """Noisy output column -> its floor."""
    queries = profile["languages"] * profile["queries_per_language"]
    return {"accuracy_mean": ACCURACY_FLOOR_QUERIES / queries, "latency_ns": LATENCY_FLOOR_NS}


def shrunk_z(value: float, mean: float, se: float, floor: float) -> float:
    """Signed distance from the reference mean in standard errors, with the
    floor taken off; 0 where the reference has no spread."""
    excess = abs(value - mean) - floor
    if se == 0 or excess <= 0:
        return 0.0
    return math.copysign(excess / se, value - mean)


def check_train_eval(cmd_index: int, path: str, ref: dict) -> str | None:
    """None when the output of command ``cmd_index`` matches, else the reason."""
    if cmd_index == 0:
        with open(path, "rb") as f:
            got = hashlib.sha256(f.read()).hexdigest()
        return None if got == ref["model_sha256"] else f"model sha256 {got} != reference"
    rows = read_results_csv(path)
    want = ref["ideal_accuracy"] if cmd_index == 1 else ref["blocked_accuracy"]
    if len(rows) != 1:
        return f"expected one result row, got {len(rows)}"
    got = rows[0]["accuracy_mean"]
    return None if got == want else f"accuracy {got} != reference {want}"


def check_sweep(cmd_index: int, path: str, ref: dict, profile: dict, first_rep_path: str | None) -> str | None:
    """Check a sweep results CSV (command 0) or a pareto front CSV (command 1)."""
    rep_dir = os.path.dirname(path)
    if cmd_index == 1:
        with open(path, "rb") as f, open(os.path.join(rep_dir, "results_pareto.csv"), "rb") as g:
            same = f.read() == g.read()
        return None if same else "pareto front differs from the sweep's own front"

    rows = read_results_csv(path)
    by_key = {point_key(r): r for r in rows}
    if sorted(by_key) != sorted(ref["points"]) or len(rows) != len(by_key):
        return f"configurations {sorted(by_key)} != reference {sorted(ref['points'])}"
    floors = noisy_fields(profile)
    zs = {field: [] for field in floors}
    for key, want in ref["points"].items():
        row = by_key[key]
        if row["energy_pJ"] != want["energy_pJ"]:
            return f"{key}: energy_pJ {row['energy_pJ']} != reference {want['energy_pJ']}"
        if int(row["trials"]) != profile["trials"]:
            return f"{key}: trials {row['trials']} != {profile['trials']}"
        if abs(float(row["accuracy_mean"]) + float(row["accuracy_loss"])
               - float(ref["ideal_accuracy"])) > 2e-6:
            return f"{key}: accuracy_mean + accuracy_loss differs from the ideal reference"
        for field, floor in floors.items():
            value, se = float(row[field]), standard_error(want, field, profile["trials"])
            if abs(value - want[field]) > Z_TOLERANCE * se + floor:
                return f"{key}: {field} {row[field]} outside tolerance of {want[field]}"
            zs[field].append(shrunk_z(value, want[field], se, floor))
    for field, z in zs.items():
        if abs(sum(z)) > Z_TOLERANCE * math.sqrt(len(z)):
            return (f"{field}: combined shift of {sum(z) / len(z):+.2f} standard errors over "
                    f"{len(z)} points exceeds {Z_TOLERANCE / math.sqrt(len(z)):.2f}")
    flagged = {point_key(r) for r in rows if r["pareto"] == "1"}
    if flagged != pareto_keys(rows):
        return "pareto flags disagree with the non-dominated set"
    front = read_results_csv(os.path.join(rep_dir, "results_pareto.csv"))
    if {point_key(r) for r in front} != flagged:
        return "results_pareto.csv differs from the flagged rows"
    if first_rep_path is not None:
        for name in ("results.csv", "results_pareto.csv"):
            with open(os.path.join(rep_dir, name), "rb") as f, \
                    open(os.path.join(os.path.dirname(first_rep_path), name), "rb") as g:
                if f.read() != g.read():
                    return f"{name} not byte-identical across --deterministic reruns"
    return None


def check(workload: str, cmd_index: int, path: str, ref: dict, profile: dict,
          first_rep_path: str | None) -> str | None:
    try:
        if workload == "train-eval-language":
            return check_train_eval(cmd_index, path, ref)
        return check_sweep(cmd_index, path, ref, profile, first_rep_path)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
