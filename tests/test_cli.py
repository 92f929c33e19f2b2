"""CLI: end-to-end runs over on-disk fixtures, determinism, resume, errors."""

import contextlib
import io
import json
import re
import shutil
import statistics
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from criterion_helpers import make_image_benchmark, save_mnist
from eval_oracle import eval_point
from hypothesis import given, settings
from hypothesis import strategies as st
from packing import pack

from hdtcam import cli, encoders, explorer, hwmodel
from hdtcam.am import AssociativeMemory, load_model, save_model


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def trained_model(small_corpus_dir, tmp_path):
    train_dir, _ = small_corpus_dir
    path = tmp_path / "model.json"
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "1000", "--output", str(path)) == 0
    return path


# ---------------------------------------------------------------------------
# train


def test_train_produces_model(trained_model, capsys):
    memory, meta = load_model(trained_model)
    assert len(memory) == 4
    assert memory.dimension == 1000
    assert meta["task"] == "language"


def test_train_retrain_byte_identical(small_corpus_dir, tmp_path):
    train_dir, _ = small_corpus_dir
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                       "--dimension", "500", "--output", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_missing_corpus_fails(tmp_path, capsys):
    code = run_cli("train", "--task", "language", "--train-dir", str(tmp_path / "nope"),
                   "--output", str(tmp_path / "m.json"))
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:")
    assert "nope" in err


@pytest.mark.parametrize("task,train_flag,query_flag", [
    ("language", "--train-dir", "--queries"),
    ("mnist", "--train-images", "--test-images"),
    ("csv", "--train-csv", "--test-csv"),
])
def test_missing_data_path_names_flag(task, train_flag, query_flag, tmp_path, capsys):
    assert run_cli("train", "--task", task, "--output", str(tmp_path / "m.json")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and train_flag in err
    model = tmp_path / "model.json"
    save_model(model, AssociativeMemory(["a"], pack(np.zeros((1, 16))), 16), {"task": task})
    assert run_cli("eval", "--model", str(model), "--task", task) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and query_flag in err


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_eval_refuses_a_task_other_than_its_models(by_config, trained_model,
                                                   unseen_label_csv, tmp_path, capsys):
    """A --task, flag or config key, that is not the task its model records
    exits E-CONFIG naming both kinds before any data is read; a model that
    records no task takes the --task given."""
    _, test, csv_model = unseen_label_csv
    missing = tmp_path / "missing.csv"
    config = tmp_path / "config.json"
    for model, task, data in ((trained_model, "csv", "--test-csv"),
                              (csv_model, "language", "--queries")):
        _, meta = load_model(model)
        config.write_text(json.dumps({"task": task}))
        given = ["--config", str(config)] if by_config else ["--task", task]
        assert run_cli("eval", "--model", str(model), *given, data, str(missing)) == 2
        assert capsys.readouterr().err == (
            f"error: E-CONFIG: --task {task} is not the model's task {meta['task']}\n")
    memory, meta = load_model(csv_model)
    del meta["task"]
    save_model(csv_model, memory, meta)
    assert run_cli("eval", "--model", str(csv_model), "--task", "csv",
                   "--test-csv", str(test)) == 0
    assert capsys.readouterr().out == "accuracy 0.6667 over 3 queries\n"


def test_train_mnist_task(tmp_path):
    """The mnist task trains, evaluates ideal and under a hardware table, and
    sweeps through the CLI; eval's ideal accuracy is that of the model on the
    queries a fresh in-process task encodes."""
    images, labels, test_images, test_labels = make_image_benchmark(
        num_classes=3, train_per_class=10, test_per_class=4, side=8, seed=4)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    tip, tlp = tmp_path / "test_img.idx", tmp_path / "test_lab.idx"
    save_mnist(ip, lp, images, labels)
    save_mnist(tip, tlp, test_images, test_labels)
    out = tmp_path / "m.json"
    assert run_cli("train", "--task", "mnist", "--train-images", str(ip),
                   "--train-labels", str(lp), "--dimension", "600",
                   "--output", str(out)) == 0
    memory, _ = load_model(out)
    assert len(memory) == 3 and memory.dimension == 600
    test_flags = ["--task", "mnist", "--test-images", str(tip), "--test-labels", str(tlp),
                  "--deterministic"]
    rows = {}
    for mode, flags in (("ideal", []), ("sram", ["--technology", "sram", "--block-size", "15"])):
        result = tmp_path / f"{mode}.csv"
        assert run_cli("eval", "--model", str(out), *test_flags, *flags,
                       "--output", str(result)) == 0
        [rows[mode]] = [l.split(",") for l in result.read_text().splitlines()[4:]]
    assert rows["sram"][:4] == ["sram", "0.7", "15", "7"]
    queries = encoders.Task("mnist").encode(test_images, 600)
    want = explorer.ideal_accuracy(memory, queries, [str(int(c)) for c in test_labels])
    assert rows["ideal"][7] == f"{want:.6f}"
    swept = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--task", "mnist", "--train-images", str(ip), "--train-labels",
                   str(lp), *test_flags, "--voltages", "0.7", "--block-sizes", "15",
                   "--dimensions", "600", "--trials", "1", "--output", str(swept)) == 0
    [point] = explorer.read_results_csv(swept)[0]
    assert point.config_key == ("sram", 0.7, 15, 7, 600, 1)


@pytest.mark.parametrize("split", ["train", "test"])
def test_idx_pair_without_images_is_a_format_error(split, tmp_path, capsys):
    """An IDX pair of zero images is refused naming its images file, the
    training pair by ``train`` and the test pair by ``eval``, as an empty
    ``label,bits`` file is."""
    images, labels, _, _ = make_image_benchmark(num_classes=2, train_per_class=3,
                                                test_per_class=1, side=8, seed=4)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    empty_ip, empty_lp = tmp_path / "empty_img.idx", tmp_path / "empty_lab.idx"
    save_mnist(ip, lp, images, labels)
    save_mnist(empty_ip, empty_lp, images[:0], labels[:0])
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    train = ["train", "--task", "mnist", "--dimension", "600", "--output", str(model)]
    if split == "train":
        argv = [*train, "--train-images", str(empty_ip), "--train-labels", str(empty_lp)]
        written = model
    else:
        assert run_cli(*train, "--train-images", str(ip), "--train-labels", str(lp)) == 0
        argv = ["eval", "--model", str(model), "--task", "mnist", "--test-images",
                str(empty_ip), "--test-labels", str(empty_lp), "--output", str(out)]
        written = out
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: E-FORMAT: {empty_ip}: no images found"), err
    assert not written.exists()


@pytest.fixture()
def mnist_model(tmp_path):
    """An mnist model trained on 8x8 images, and a test pair of 6x6 images."""
    images, labels, _, _ = make_image_benchmark(num_classes=3, train_per_class=3,
                                                test_per_class=1, side=8, seed=4)
    _, _, small, small_labels = make_image_benchmark(num_classes=3, train_per_class=1,
                                                     test_per_class=2, side=6, seed=5)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    tip, tlp = tmp_path / "small_img.idx", tmp_path / "small_lab.idx"
    save_mnist(ip, lp, images, labels)
    save_mnist(tip, tlp, small, small_labels)
    model = tmp_path / "mnist.json"
    assert run_cli("train", "--task", "mnist", "--train-images", str(ip), "--train-labels",
                   str(lp), "--dimension", "600", "--output", str(model)) == 0
    return model, ["--task", "mnist", "--test-images", str(tip), "--test-labels", str(tlp)]


def test_eval_refuses_images_of_another_shape(mnist_model, unseen_label_csv, tmp_path, capsys,
                                              monkeypatch):
    """An mnist model records its images' shape, and eval refuses test images
    of another shape with E-DIMENSION before it encodes them, writing no file;
    a model without the shape, as a csv model is, is read as before."""
    model, test_flags = mnist_model
    assert load_model(model)[1]["image_shape"] == [8, 8]
    assert "image_shape" not in load_model(unseen_label_csv[2])[1]
    out = tmp_path / "out.csv"
    with monkeypatch.context() as patch:
        patch.setattr(encoders, "encode_images", lambda *args, **kwargs: pytest.fail("encoded"))
        assert run_cli("eval", "--model", str(model), *test_flags, "--output", str(out)) == 2
    assert capsys.readouterr().err == ("error: E-DIMENSION: test images of shape [6, 6], "
                                       "the model's images of shape [8, 8]\n")
    assert not out.exists()
    doc = json.loads(model.read_text())
    del doc["seed_metadata"]["image_shape"]
    model.write_text(json.dumps(doc))
    assert run_cli("eval", "--model", str(model), *test_flags) == 0


@pytest.mark.parametrize("shape", ["8x8", [8.0, 8.0], 8, None],
                         ids=["string", "floats", "scalar", "null"])
def test_model_image_shape_of_another_type_is_refused(shape, mnist_model, tmp_path, capsys):
    """A model whose ``image_shape`` is not a list of integers exits E-CONFIG
    naming the key, as a seed of another type in its metadata does."""
    model, test_flags = mnist_model
    doc = json.loads(model.read_text())
    doc["seed_metadata"]["image_shape"] = shape
    model.write_text(json.dumps(doc))
    assert run_cli("eval", "--model", str(model), *test_flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG: 'image_shape' must be a list of int"), err


def test_config_file_with_flag_override(small_corpus_dir, tmp_path):
    train_dir, _ = small_corpus_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "language", "train_dir": str(train_dir),
                               "dimension": 300}))
    out = tmp_path / "m.json"
    assert run_cli("train", "--config", str(cfg), "--dimension", "400",
                   "--output", str(out)) == 0
    memory, _ = load_model(out)
    assert memory.dimension == 400  # command line wins


# ---------------------------------------------------------------------------
# eval


def test_eval_ideal_and_noisy(trained_model, small_corpus_dir, tmp_path, capsys):
    _, queries_csv = small_corpus_dir
    assert run_cli("eval", "--model", str(trained_model), "--task", "language",
                   "--queries", str(queries_csv)) == 0
    out = capsys.readouterr().out
    assert "accuracy 0." in out
    csv_path = tmp_path / "eval.csv"
    assert run_cli("eval", "--model", str(trained_model), "--task", "language",
                   "--queries", str(queries_csv), "--technology", "sram",
                   "--voltage", "0.7", "--block-size", "15", "--trials", "2",
                   "--deterministic", "--output", str(csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert any(line.startswith("sram,0.7,15,7,1000,1,2,") for line in lines)
    assert any("generated=" in line for line in lines) is False  # deterministic


def test_eval_labels_the_point_with_its_table(unseen_label_csv, tmp_path):
    """A voltage off the 10 mV grid looks up, and is written as, the grid
    table's voltage."""
    _, test, model = unseen_label_csv
    rows = []
    for voltage in ("0.7", "0.701"):
        out = tmp_path / f"eval_{voltage}.csv"
        assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                       "--technology", "sram", "--voltage", voltage, "--block-size", "8",
                       "--trials", "2", "--deterministic", "--output", str(out)) == 0
        rows.append(out.read_text().splitlines()[-1])
    assert rows[0] == rows[1] and rows[0].startswith("sram,0.7,8,7,64,1,2,")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_eval_trials_below_one_is_a_usage_error(trials, unseen_label_csv, tmp_path, capsys):
    _, test, model = unseen_label_csv
    out = tmp_path / "out.csv"
    assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                   "--technology", "sram", "--block-size", "8", "--trials", trials,
                   "--output", str(out)) != 0
    err = capsys.readouterr().err
    assert err.startswith(f"error: E-USAGE: trials must be >= 1, got {trials}"), err
    assert not out.exists()


@pytest.fixture()
def noisy_csv(tmp_path):
    """A 96-bit csv task of 4 classes and 24 queries, each a class vector with
    a quarter of its bits flipped, and the model trained on it."""
    rng = np.random.default_rng(31)
    rows = rng.integers(0, 2, size=(4, 96), dtype=np.uint8)
    classes = np.arange(24) % 4
    flips = (rng.random((24, 96)) < 0.25).astype(np.uint8)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    for path, matrix, labels in ((train, rows, range(4)), (test, rows[classes] ^ flips, classes)):
        path.write_text("label,bits\n" + "".join(
            f"c{label},{''.join(map(str, row))}\n" for label, row in zip(labels, matrix)))
    model = tmp_path / "m.json"
    assert run_cli("train", "--task", "csv", "--train-csv", str(train),
                   "--dimension", "96", "--output", str(model)) == 0
    return test, model


# eval's modes: ideal, noise-free blocked, and hardware with the table's
# precision or a lower one, each with its settings (flag name -> value).
EVAL_MODES = {
    "ideal": {},
    "noise-free-blocked": {"block_size": 8, "precision": 4},
    "sram-1.0V": {"technology": "sram", "voltage": 1.0, "trials": 3, "seed": 9},
    "fefinfet-r3-below-the-table": {"technology": "fefinfet", "voltage": 0.6, "block_size": 8,
                                    "precision": 4, "replicas": 3, "trials": 4, "seed": 2},
}


def _run_eval_mode(mode, noisy_csv, output):
    test, model = noisy_csv
    flags = [x for name, value in EVAL_MODES[mode].items()
             for x in ("--" + name.replace("_", "-"), str(value))]
    return run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                   *flags, "--deterministic", "--output", str(output))


@pytest.mark.parametrize("mode", EVAL_MODES)
def test_eval_point_equals_the_direct_computation(mode, noisy_csv, tmp_path):
    """The row eval writes is the row of the point computed directly: the
    ideal point built from the ideal accuracy, a noise-free blocked one from
    the argmin of its clamped totals, one under a table from one ``evaluate``
    call with the seed a sweep derives for the point from eval's seed."""
    test, model = noisy_csv
    out = tmp_path / "out.csv"
    assert _run_eval_mode(mode, noisy_csv, out) == 0
    queries, labels, _ = encoders.load_hypervector_csv(test)
    want = eval_point(load_model(model)[0], queries, labels, **EVAL_MODES[mode])
    if "technology" in EVAL_MODES[mode]:
        assert want.latency_ns > 0  # drawn from the seed, so the row depends on it
    text = io.StringIO()
    explorer.write_results_csv([want], text)
    assert out.read_text().splitlines()[-1] == text.getvalue().splitlines()[-1]


@pytest.mark.parametrize("mode", EVAL_MODES)
def test_eval_runs_its_point_through_sweep(mode, noisy_csv, tmp_path, monkeypatch):
    """Every eval mode runs its one point through ``explorer.sweep``, once."""
    calls = []
    real = explorer.sweep

    def spy(plan, datasets, **kwargs):
        calls.append(len(plan))
        return real(plan, datasets, **kwargs)

    monkeypatch.setattr(explorer, "sweep", spy)
    assert _run_eval_mode(mode, noisy_csv, tmp_path / "out.csv") == 0
    assert calls == [1]


def _rows(path):
    """The rows of a results CSV, Pareto column aside."""
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()
            if line[:1] not in ("#", "t")]


@pytest.mark.parametrize("seed", [9, -1])
def test_hardware_eval_writes_the_row_of_its_sweep(seed, noisy_csv, tmp_path):
    """A hardware eval is the one-point sweep of its settings: at the same
    master seed, below 0 too, its row is the row that a sweep over more
    points writes for that point, Pareto flag aside."""
    test, model = noisy_csv
    common = ["--task", "csv", "--test-csv", str(test), "--precision", "4", "--trials", "4",
              "--seed", str(seed), "--deterministic"]
    assert run_cli("eval", "--model", str(model), *common, "--technology", "fefinfet",
                   "--voltage", "0.6", "--block-size", "8", "--replicas", "3",
                   "--output", str(tmp_path / "eval.csv")) == 0
    common[common.index("--precision")] = "--precisions"
    assert run_cli("sweep", "--train-csv", str(test.parent / "train.csv"), *common,
                   "--technologies", "sram,fefinfet", "--voltages", "0.6,1.0",
                   "--block-sizes", "8", "--replicas", "1,3", "--dimensions", "96",
                   "--output", str(tmp_path / "sweep.csv")) == 0
    [row] = _rows(tmp_path / "eval.csv")
    assert row.startswith("fefinfet,0.6,8,4,96,3,4,")
    assert row in _rows(tmp_path / "sweep.csv") and len(_rows(tmp_path / "sweep.csv")) == 8


@pytest.fixture()
def bits_csv(tmp_path):
    """A 16-bit csv task of two classes, with test queries that differ from
    their class in every block of 3 and of 7 bits, and the model trained on it."""
    train, test, model = tmp_path / "bits.csv", tmp_path / "bits_test.csv", tmp_path / "m.json"
    train.write_text("label,bits\na,0110100110010110\nb,1010010110100101\n")
    test.write_text("label,bits\na,1111101111011111\nb,0011011111101100\n"
                    "a,0010000010110011\nb,1110110010000000\n")
    assert run_cli("train", "--task", "csv", "--train-csv", str(train), "--dimension", "16",
                   "--deterministic", "--output", str(model)) == 0
    return train, test, model


def test_sweep_without_a_table_writes_the_rows_of_noise_free_evals(bits_csv, tmp_path):
    """``sweep --technologies none`` is the noise-free precision sweep: one
    point per (N, P, D), whatever its voltages, replicas and trials, each
    row, Pareto column aside, the row of ``eval --block-size N --precision
    P``, and of that eval with ``--technology none``."""
    train, test, model = bits_csv
    assert run_cli("sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
                   "--technologies", "none", "--voltages", "0.5,0.7", "--block-sizes", "3,7",
                   "--precisions", "3", "--dimensions", "16", "--replicas", "1,3",
                   "--trials", "2", "--deterministic", "--output", str(tmp_path / "s.csv")) == 0
    rows = _rows(tmp_path / "s.csv")
    assert [row[:14] for row in rows] == [",0,3,3,16,1,1,", ",0,7,3,16,1,1,"]
    for n, row in zip((3, 7), rows):
        for technology in ([], ["--technology", "none"]):
            out = tmp_path / "eval.csv"
            assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv",
                           str(test), "--block-size", str(n), "--precision", "3", *technology,
                           "--deterministic", "--output", str(out)) == 0
            assert _rows(out) == [row]


def test_resumed_sweep_without_a_table_keeps_its_logged_points(bits_csv, tmp_path, capsys):
    """A resumed noise-free sweep finds a logged point by its configuration
    (no technology, 0 V, r = 1) and writes it as logged, not run again."""
    train, test, _ = bits_csv
    argv = ["sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
            "--technologies", "none", "--block-sizes", "3,7", "--precisions", "3",
            "--dimensions", "16", "--deterministic", "--output"]
    full, resumed = tmp_path / "full.csv", tmp_path / "resumed.csv"
    assert run_cli(*argv, str(full)) == 0
    points, _ = explorer.read_results_csv(full)
    logged = replace(points[0], accuracy_mean=0.125)  # not what a rerun reads
    (tmp_path / "resumed.csv.partial.jsonl").write_text(_partial_header(full) + json.dumps(
        {column: getattr(logged, field) for field, column, _ in explorer.COLUMNS}) + "\n")
    capsys.readouterr()
    assert run_cli(*argv, str(resumed)) == 0
    assert "resuming: 1 points already evaluated" in capsys.readouterr().out
    assert [replace(p, pareto=False) for p in explorer.read_results_csv(resumed)[0]] == [
        replace(p, pareto=False) for p in (logged, points[1])]
    assert not (tmp_path / "resumed.csv.partial.jsonl").exists()


def test_ideal_eval_takes_any_seed(unseen_label_csv, tmp_path):
    """The ideal eval draws nothing, so a seed below 0 is recorded as given."""
    _, test, model = unseen_label_csv
    out = tmp_path / "out.csv"
    assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                   "--seed", "-1", "--deterministic", "--output", str(out)) == 0
    assert "# seed=-1" in out.read_text().splitlines()


def test_too_short_texts_are_degenerate_and_named(small_corpus_dir, trained_model,
                                                   tmp_path, capsys):
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    (train_dir / "ok.txt").write_text("a long enough corpus")
    (train_dir / "tiny.txt").write_text("Hi!")
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "100", "--output", str(tmp_path / "m.json")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-DEGENERATE:")
    assert "corpus 'tiny' has only 2 usable characters" in err
    queries_csv = tmp_path / "queries.csv"
    queries_csv.write_text("label,text\nlang00,long enough\n\nlang01,a b\n")
    assert run_cli("eval", "--model", str(trained_model), "--task", "language",
                   "--queries", str(queries_csv)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-DEGENERATE:")
    assert f"query in {queries_csv} row 4 has only 3 usable characters" in err


def test_eval_missing_model(tmp_path, capsys):
    assert run_cli("eval", "--model", str(tmp_path / "no.json"),
                   "--task", "language", "--queries", "x.csv") != 0
    assert capsys.readouterr().err.startswith("error: E-IO:")


# ---------------------------------------------------------------------------
# sweep / pareto


SWEEP_FLAGS = ["--voltages", "0.5,1.0", "--block-sizes", "7", "--precisions", "7",
               "--dimensions", "800", "--trials", "2", "--deterministic"]


def _run_sweep(train_dir, queries_csv, output):
    return run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                   "--queries", str(queries_csv), *SWEEP_FLAGS,
                   "--output", str(output))


def test_sweep_deterministic_and_pareto(small_corpus_dir, tmp_path, capsys):
    train_dir, queries_csv = small_corpus_dir
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert _run_sweep(train_dir, queries_csv, out1) == 0
    assert _run_sweep(train_dir, queries_csv, out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    p1 = tmp_path / "r1_pareto.csv"
    assert p1.exists()
    front = tmp_path / "front.csv"
    assert run_cli("pareto", "--input", str(out1), "--output", str(front)) == 0
    # the standalone pareto command agrees with the sweep's own front rows
    assert ([l for l in front.read_text().splitlines() if not l.startswith("#")]
            == [l for l in p1.read_text().splitlines() if not l.startswith("#")])


def test_sweep_jobs_byte_identical(small_corpus_dir, tmp_path, capsys):
    """Threads share each (D, N) histogram read-only, and the config hash
    leaves the worker count out: without --jobs, with --jobs 1 and with
    --jobs 2 a sweep writes the same bytes."""
    train_dir, queries_csv = small_corpus_dir
    outputs = {}
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
        out = tmp_path / f"r{len(outputs)}.csv"
        assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                       "--queries", str(queries_csv), "--technologies", "sram,fefinfet",
                       "--voltages", "0.5,0.7", "--block-sizes", "7,15", "--precisions", "3,7",
                       "--dimensions", "300,1000", "--replicas", "1,3", "--trials", "2",
                       *jobs, "--deterministic", "--output", str(out)) == 0
        front = out.with_name(f"{out.stem}_pareto.csv")
        outputs[tuple(jobs)] = [out.read_bytes(), front.read_bytes()]
    want = outputs[()]
    assert len(want[0].splitlines()) == 4 + 2 * 2 * 2 * 2 * 2 * 2  # 3 metadata lines, header
    assert outputs[("--jobs", "1")] == want and outputs[("--jobs", "2")] == want


def _sweep_rows(path):
    """The rows of a results CSV without its metadata, header and pareto column."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    return sorted(l.rsplit(",", 1)[0] for l in lines)


def test_sweep_of_two_dimensions_is_two_sweeps(small_corpus_dir, tmp_path, capsys):
    """Reading each split once changes no row: pareto flags aside, a sweep
    over D = 300 and 1000 writes the rows of the two one-dimension sweeps."""
    train_dir, queries_csv = small_corpus_dir
    rows = {}
    for dimensions in ("300,1000", "300", "1000"):
        out = tmp_path / f"d{dimensions.replace(',', '-')}.csv"
        assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                       "--queries", str(queries_csv), "--technologies", "sram",
                       "--voltages", "0.7,1.0", "--block-sizes", "7,15", "--precisions", "7",
                       "--dimensions", dimensions, "--trials", "2", "--deterministic",
                       "--output", str(out)) == 0
        rows[dimensions] = _sweep_rows(out)
    assert len(rows["300,1000"]) == 8
    assert rows["300,1000"] == sorted(rows["300"] + rows["1000"])


def test_sweep_reads_each_split_once(tmp_path, monkeypatch, capsys):
    """A two-dimension mnist sweep opens its training pair and its test pair
    once each, not once per dimension."""
    images, labels, test_images, test_labels = make_image_benchmark(
        num_classes=3, train_per_class=5, test_per_class=2, side=8, seed=4)
    ip, lp, tip, tlp = (str(tmp_path / name) for name in ("i.idx", "l.idx", "ti.idx", "tl.idx"))
    save_mnist(ip, lp, images, labels)
    save_mnist(tip, tlp, test_images, test_labels)
    calls, load_mnist = [], encoders.load_mnist

    def counted(*paths):
        calls.append(paths)
        return load_mnist(*paths)
    monkeypatch.setattr(encoders, "load_mnist", counted)
    assert run_cli("sweep", "--task", "mnist", "--train-images", ip, "--train-labels", lp,
                   "--test-images", tip, "--test-labels", tlp, "--voltages", "0.7",
                   "--block-sizes", "15", "--dimensions", "300,600", "--trials", "1",
                   "--output", str(tmp_path / "out.csv")) == 0
    assert calls == [(ip, lp), (tip, tlp)]


def _partial_header(results_csv):
    """The partial-file header of a sweep run without --jobs: its config hash
    is the one in the results' metadata."""
    [meta] = [l for l in results_csv.read_text().splitlines() if l.startswith("# config_hash=")]
    return json.dumps({"config_hash": meta.split("=", 1)[1]}) + "\n"


def test_sweep_resume_matches_uninterrupted(small_corpus_dir, tmp_path, capsys):
    train_dir, queries_csv = small_corpus_dir
    full, resumed = tmp_path / "full.csv", tmp_path / "resumed.csv"
    assert _run_sweep(train_dir, queries_csv, full) == 0
    points = [l for l in full.read_text().splitlines()
              if l and not l.startswith("#") and not l.startswith("technology")]

    def as_json(row):
        fields = row.split(",")
        return json.dumps({
            "technology": fields[0], "voltage_V": float(fields[1]),
            "block_size": int(fields[2]), "precision": int(fields[3]),
            "dimension": int(fields[4]), "replicas": int(fields[5]),
            "trials": int(fields[6]), "accuracy_mean": float(fields[7]),
            "accuracy_std": float(fields[8]), "accuracy_loss": float(fields[9]),
            "energy_pJ": float(fields[10]), "latency_ns": float(fields[11]),
            "pareto": fields[12] == "1",
        })

    partial = tmp_path / "resumed.csv.partial.jsonl"
    header = _partial_header(full)
    # an interrupted run: one point already in the partial file
    partial.write_text(header + as_json(points[0]) + "\n")
    assert _run_sweep(train_dir, queries_csv, resumed) == 0
    assert resumed.read_bytes() == full.read_bytes()
    assert not partial.exists()
    # a run killed mid-write leaves a torn final line, which is skipped
    resumed.unlink()
    partial.write_text(header + as_json(points[0]) + "\n" + as_json(points[1])[:25])
    capsys.readouterr()
    assert _run_sweep(train_dir, queries_csv, resumed) == 0
    assert "resuming: 1 points already evaluated" in capsys.readouterr().out
    assert resumed.read_bytes() == full.read_bytes()
    assert not partial.exists()
    # the worker count is not part of the configuration
    partial.write_text(header + as_json(points[0]) + "\n")
    assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                   "--queries", str(queries_csv), *SWEEP_FLAGS, "--jobs", "2",
                   "--output", str(resumed)) == 0
    assert not partial.exists()


@pytest.mark.parametrize("change", [
    ["--trials", "3"], ["--seed", "1"], "no header", "header not JSON",
], ids=["trials", "seed", "no-header", "header-not-json"])
def test_sweep_resume_refuses_other_configuration(change, small_corpus_dir, tmp_path, capsys):
    """A partial file from another configuration, or one without the header
    that records it (none, or a first line that is not JSON), is refused
    rather than mixed into the results."""
    train_dir, queries_csv = small_corpus_dir
    full = tmp_path / "full.csv"
    assert _run_sweep(train_dir, queries_csv, full) == 0
    partial = tmp_path / "resumed.csv.partial.jsonl"
    point = json.dumps({"technology": "sram", "voltage_V": 0.5, "block_size": 7,
                        "precision": 7, "dimension": 800, "replicas": 1, "trials": 2,
                        "accuracy_mean": 0.5, "accuracy_std": 0.0, "accuracy_loss": 0.4,
                        "energy_pJ": 1.0, "latency_ns": 1.0, "pareto": False}) + "\n"
    header = {"no header": "", "header not JSON": '{"config_hash": \n'}
    partial.write_text((header[change] if isinstance(change, str) else _partial_header(full))
                       + point)
    extra = [] if isinstance(change, str) else change
    capsys.readouterr()
    assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                   "--queries", str(queries_csv), *SWEEP_FLAGS, *extra,
                   "--output", str(tmp_path / "resumed.csv")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and str(partial) in err
    assert partial.read_text().endswith(point)
    assert not (tmp_path / "resumed.csv").exists()


@pytest.mark.parametrize("body", [
    '{"technology": "sram"}', "[1, 2]", '"point"', "null",
    '{"technology": "sram", "voltage_V": "high"}',
    '{"technology": "sram", "voltage_V": 0.5, "block_size": Infinity}',
    '{"technology": "sram"',
], ids=["missing-key", "list", "string", "null", "bad-number", "infinite-int", "torn-not-last"])
def test_sweep_resume_rejects_malformed_point(body, small_corpus_dir, tmp_path, capsys):
    """A body line that is valid JSON but not a design point, or a torn line
    followed by another, exits E-FORMAT naming the file and the line."""
    train_dir, queries_csv = small_corpus_dir
    full = tmp_path / "full.csv"
    assert _run_sweep(train_dir, queries_csv, full) == 0
    partial = tmp_path / "resumed.csv.partial.jsonl"
    contents = _partial_header(full) + "\n" + body + "\n" + '{"technology": "sram"}\n'
    partial.write_text(contents)
    capsys.readouterr()
    assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                   "--queries", str(queries_csv), *SWEEP_FLAGS,
                   "--output", str(tmp_path / "resumed.csv")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(partial) in err and "line 3" in err
    assert partial.read_text() == contents
    assert not (tmp_path / "resumed.csv").exists()


def test_sweep_failing_before_a_point_leaves_no_resume_log(unseen_label_csv, tmp_path, capsys):
    """A sweep refused for a catalog gap removes the resume log it made, so
    the corrected sweep, another configuration, runs."""
    train, test, _ = unseen_label_csv
    argv = ["sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
            "--block-sizes", "8", "--precisions", "4", "--dimensions", "64", "--trials", "2",
            "--output", str(tmp_path / "s.csv")]
    assert run_cli(*argv, "--voltages", "0.75") != 0
    assert capsys.readouterr().err.startswith("error: E-CONFIG: hardware catalog has no entry")
    assert not (tmp_path / "s.csv.partial.jsonl").exists()
    assert run_cli(*argv, "--voltages", "0.7") == 0


@pytest.mark.parametrize("block_sizes, precisions, error", [
    ("7,25", "7,8", "E-CONFIG: precision 8 exceeds the hardware table's maximum of 7"),
    ("7", "7,0", "E-USAGE: precision must be in [1, 7], got 0"),
], ids=["above-the-table", "zero"])
def test_sweep_point_refused_after_valid_ones_runs_no_point(block_sizes, precisions, error,
                                                            unseen_label_csv, tmp_path, capsys):
    """A point whose precision its table or its block geometry refuses, listed
    after points that are valid, stops the sweep before the first point runs:
    no progress line and no resume log, so the corrected sweep runs."""
    train, test, _ = unseen_label_csv
    out = tmp_path / "s.csv"
    argv = ["sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
            "--voltages", "0.7", "--block-sizes", block_sizes, "--dimensions", "64",
            "--trials", "1", "--output", str(out)]
    assert run_cli(*argv, "--precisions", precisions) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert "[sweep]" not in captured.out
    assert not out.exists() and not (tmp_path / "s.csv.partial.jsonl").exists()
    assert run_cli(*argv, "--precisions", "7") == 0


@pytest.mark.parametrize("flag, value, error", [
    ("--precisions", "7,0", "E-USAGE: precision must be in [1, 7], got 0"),
    ("--voltages", "0.75",
     "E-CONFIG: hardware catalog has no entry for technology=sram voltage_V=0.75 block_size=7"),
    ("--technologies", "none,sram", "E-USAGE: technology 'none' (0 pJ) is swept alone, "
                                    "not beside a table"),
    ("--technologies", "fefinfet,none", "E-USAGE: technology 'none' (0 pJ) is swept alone, "
                                        "not beside a table"),
], ids=["zero-precision", "catalog-gap", "no-table-beside-a-table", "a-table-beside-no-table"])
def test_refused_sweep_reads_no_data(flag, value, error, tmp_path, capsys):
    """A sweep that one of its points, or its space, refuses exits with that
    error before it reads a data set: its training and query files do not
    exist, and it leaves no file, a resume log neither."""
    missing = str(tmp_path / "nope.csv")
    axes = {"--voltages": "0.7", "--block-sizes": "7", "--precisions": "7", flag: value}
    assert run_cli("sweep", "--task", "csv", "--train-csv", missing, "--test-csv", missing,
                   *[x for item in axes.items() for x in item], "--dimensions", "64",
                   "--output", str(tmp_path / "s.csv")) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, error", [
    ("--technology sram --voltage 0.75 --block-size 12",
     "E-CONFIG: hardware catalog has no entry for technology=sram voltage_V=0.75 block_size=12"),
    ("--technology sram --replicas 2",
     f"E-USAGE: replica count must be odd and in [1, {hwmodel.MAX_REPLICAS}], got 2"),
    ("--technology sram --trials 0", "E-USAGE: trials must be >= 1, got 0"),
    ("--block-size 1", "E-USAGE: block size must be >= 2, got 1"),
    ("--technology sram --block-size 15 --precision 10",
     "E-CONFIG: precision 10 exceeds the hardware table's maximum of 7"),
    ("--block-size 7 --precision 8", "E-USAGE: no (block_size, precision) pair satisfies P <= N"),
    ("--technology sram --block-size 7 --precision 8",
     "E-USAGE: no (block_size, precision) pair satisfies P <= N"),
], ids=["catalog-gap", "even-replicas", "zero-trials", "block-size-1", "above-the-table",
        "above-the-block", "hardware-above-the-block"])
def test_refused_eval_reads_no_data(flags, error, unseen_label_csv, tmp_path, capsys):
    """An eval that its point refuses exits with the point's error before it
    reads a query: its query file does not exist, and it writes no file."""
    _, _, model = unseen_label_csv
    before = sorted(tmp_path.iterdir())
    assert run_cli("eval", "--model", str(model), "--task", "csv",
                   "--test-csv", str(tmp_path / "nope.csv"), *flags.split(),
                   "--output", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(tmp_path.iterdir()) == before


_TASK_REFUSALS = {
    "item-seed": ("language", "--item-seed", "-1", "E-USAGE: item_seed must be >= 0, got -1"),
    "tie-seed": ("language", "--tie-seed", "-3", "E-USAGE: tie_seed must be >= 0, got -3"),
    "ngram": ("language", "--ngram", "0", "E-USAGE: n-gram size must be in [1, 13], got 0"),
    "ngram-14": ("language", "--ngram", "14", "E-USAGE: n-gram size must be in [1, 13], got 14"),
    "threshold-0": ("mnist", "--threshold", "0", "E-USAGE: threshold must be in [1, 255], got 0"),
    "threshold-256": ("mnist", "--threshold", "256",
                      "E-USAGE: threshold must be in [1, 255], got 256"),
}


@pytest.mark.parametrize("command, task, flag, value, error", [
    pytest.param(command, *case, id=f"{name}-{command}")
    for name, case in _TASK_REFUSALS.items() for command in ("train", "eval", "sweep")
    if not (command == "eval" and name.endswith("-seed"))])  # eval takes its model's seeds
def test_refused_task_settings_read_no_data(command, task, flag, value, error,
                                            unseen_label_csv, tmp_path, capsys):
    """A task setting out of range is refused by name before any data is
    read: the corpus directory, image and label files and query file do not
    exist, and no file is written."""
    _, _, model = unseen_label_csv
    missing, out = str(tmp_path / "nope"), str(tmp_path / "out.csv")
    train, test = {"language": (["--train-dir", missing], ["--queries", missing]),
                   "mnist": (["--train-images", missing, "--train-labels", missing],
                             ["--test-images", missing, "--test-labels", missing])}[task]
    files = {"train": train, "eval": ["--model", str(model), *test],
             "sweep": [*train, *test]}[command]
    before = sorted(tmp_path.iterdir())
    assert run_cli(command, "--task", task, *files, flag, value, "--output", out) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_eval_refuses_a_model_with_a_negative_seed(unseen_label_csv, tmp_path, capsys):
    """A seed read from a model's metadata is checked as a flag is, before a query is read."""
    _, _, model = unseen_label_csv
    doc = json.loads(model.read_text())
    doc["seed_metadata"]["tie_seed"] = -1
    model.write_text(json.dumps(doc))
    assert run_cli("eval", "--model", str(model), "--test-csv", str(tmp_path / "nope.csv")) == 2
    assert capsys.readouterr().err == "error: E-USAGE: tie_seed must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# results CSV loader


@pytest.fixture(scope="module")
def results_lines():
    """Lines of a small results CSV as a sweep writes it, metadata included."""
    points = [explorer.DesignPoint("sram", v, n, 7, 1000, 1, 2, 0.9 - 0.01 * n, 0.01,
                                   0.01 * n, v * n, 0.2)
              for v in (0.5, 1.0) for n in (7, 15)]
    buf = io.StringIO()
    explorer.write_results_csv(explorer.flag_pareto(points), buf,
                               metadata_lines=["tool=hdtcam", "seed=0"])
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("field, value", [
    ("accuracy_mean", "abc"), ("energy_pJ", "nan"), ("latency_ns", "inf"),
    ("voltage_V", "-inf"), ("accuracy_loss", "1e999"), ("block_size", "7.5"),
])
def test_pareto_rejects_malformed_row(results_lines, tmp_path, capsys, field, value):
    """A row with a field that is not a finite number exits E-FORMAT naming
    the file and the row."""
    lines = list(results_lines)
    fields = lines[3].rstrip("\n").split(",")
    fields[explorer.CSV_COLUMNS.split(",").index(field)] = value
    lines[3] = ",".join(fields) + "\n"
    path = tmp_path / "results.csv"
    path.write_text("".join(lines))
    assert run_cli("pareto", "--input", str(path), "--output", str(tmp_path / "f.csv")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(path) in err and "row 4" in err, err
    assert not (tmp_path / "f.csv").exists()


_FIELD_VALUES = st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "abc", "",
                                 "1.5", "-0", "7", "#"]) | st.text(max_size=6)
_CSV_OPS = ["field", "columns", "line", "byte", "truncate"]


def _mutate_csv(lines, op, data, values=_FIELD_VALUES):
    """Apply one mutation to the lines of a CSV (a list of str), or to their
    bytes; a replaced or inserted field is drawn from ``values``."""
    i = data.draw(st.integers(0, len(lines) - 1)) if lines else 0
    if op in ("field", "columns") and lines:
        fields = lines[i].rstrip("\n").split(",")
        k = data.draw(st.integers(0, len(fields) - 1))
        if op == "field":
            fields[k] = data.draw(values)
        elif data.draw(st.booleans()):
            fields.pop(k)
        else:
            fields.insert(k, data.draw(values))
        lines[i] = ",".join(fields) + "\n"
    elif op == "line":
        edit = data.draw(st.sampled_from(["drop", "duplicate", "insert"]))
        if edit == "drop" and lines:
            lines.pop(i)
        elif edit == "duplicate" and lines:
            lines.insert(i, lines[i])
        else:
            lines.insert(i, data.draw(st.text(max_size=20)) + "\n")
    blob = "".join(lines).encode()
    if op == "byte" and blob:
        k = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:k] + bytes([data.draw(st.integers(0, 255))]) + blob[k + 1:]
    elif op == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob)))]
    return blob


@pytest.mark.parametrize("op", _CSV_OPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_csv_fuzz(op, results_lines, tmp_path_factory, data):
    """A results CSV mutated by ``op`` and maybe one more mutation either
    exits E-FORMAT or exits 0 with a front that reads back."""
    lines = list(results_lines)
    blob = b""
    for op in [op] + data.draw(st.lists(st.sampled_from(_CSV_OPS), max_size=1)):
        blob = _mutate_csv(lines, op, data)
        lines = blob.decode("utf-8", "replace").splitlines(keepends=True)
    path = tmp_path_factory.getbasetemp() / "fuzz_results.csv"
    out = tmp_path_factory.getbasetemp() / "fuzz_front.csv"
    path.write_bytes(blob)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli("pareto", "--input", str(path), "--output", str(out))
    if code != 0:
        assert err.getvalue().startswith("error: E-FORMAT:"), err.getvalue()
        return
    points, _ = explorer.read_results_csv(out)
    assert points and all(p.pareto for p in points)


@pytest.fixture()
def unseen_label_csv(tmp_path):
    """A 64-bit csv task whose test set holds a label training never saw."""
    rows = np.random.default_rng(8).integers(0, 2, size=(2, 64)).astype(str)
    a, b = ("".join(r) for r in rows)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text(f"label,bits\na,{a}\nb,{b}\n")
    test.write_text(f"label,bits\na,{a}\nb,{b}\nz,{a}\n")
    model = tmp_path / "m.json"
    assert run_cli("train", "--task", "csv", "--train-csv", str(train),
                   "--dimension", "64", "--output", str(model)) == 0
    return train, test, model


@pytest.mark.parametrize("mode", ["ideal", "blocked", "noisy", "sweep"])
def test_unseen_query_label_counts_as_miss(mode, unseen_label_csv, tmp_path):
    train, test, model = unseen_label_csv
    out = tmp_path / "out.csv"
    if mode == "sweep":
        argv = ["sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
                "--voltages", "1.0", "--block-sizes", "8", "--precisions", "4",
                "--dimensions", "64", "--trials", "2"]
    else:
        argv = ["eval", "--model", str(model), "--task", "csv", "--test-csv", str(test)]
        argv += {"ideal": [], "blocked": ["--block-size", "8", "--precision", "4"],
                 "noisy": ["--technology", "sram", "--voltage", "1.0",
                           "--block-size", "8", "--trials", "2"]}[mode]
    assert run_cli(*argv, "--output", str(out)) == 0
    [row] = [l for l in out.read_text().splitlines() if l[:1] not in ("#", "t")]
    accuracy = float(row.split(",")[7])
    assert accuracy <= 2 / 3 + 1e-6
    if mode in ("ideal", "blocked"):
        assert accuracy == pytest.approx(2 / 3, abs=1e-6)
    assert not (tmp_path / "out.csv.partial.jsonl").exists()


def test_sweep_jobs_progress_lines_whole(small_corpus_dir, tmp_path, capsys, monkeypatch):
    """Worker threads report through one lock: no interleaved progress lines."""
    train_dir, queries_csv = small_corpus_dir

    def instant_evaluate(hist, label_idx, hw, replicas=1, trials=10, seed=0, *, am,
                         queries, cfg):
        return 1.0, 0.0, 1.0, 1.0

    monkeypatch.setattr(explorer, "evaluate", instant_evaluate)
    monkeypatch.setattr(explorer, "ideal_accuracy", lambda am, queries, labels: 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                       "--queries", str(queries_csv), "--technologies", "sram,fefinfet",
                       "--voltages", "0.5,0.6,0.7,0.8,0.9,1.0",
                       "--block-sizes", "7,8,10,12,15,20,25", "--precisions", "2,3,5,7",
                       "--dimensions", "100", "--replicas", "1,3,5,7,9",
                       "--jobs", "8", "--output", str(tmp_path / "r.csv")) == 0
    finally:
        sys.setswitchinterval(interval)
    lines = capsys.readouterr().out.splitlines()
    progress = [l for l in lines if "[sweep]" in l]
    assert len(progress) == 2 * 6 * 7 * 4 * 5
    assert all(re.fullmatch(r"\[sweep\] (sram|fefinfet) [0-9.]+ V N=[0-9]+ P=[0-9] "
                            r"D=100 r=[0-9]: loss 0.000 %, 1.00 pJ", l) for l in progress)


@pytest.mark.parametrize("value", [[None], 0.7], ids=["null-element", "not-a-list"])
def test_sweep_axis_that_does_not_convert_is_a_config_error(value, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"voltages": value}))
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--config", str(config), "--task", "csv",
                   "--output", str(out)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and "'voltages'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("train", {"dimension": None}),
    ("train", {"dimension": [1]}),
    ("train", {"train_csv": ["train.csv"]}),
    ("eval-hw", {"voltage": None}),
    ("eval-hw", {"trials": None}),
    ("eval-hw", {"seed": None}),
    ("eval-hw", {"hw_tables": 987654}),
    ("eval", {"precision": [7], "block_size": 15}),
    ("eval", {"block_size": "15"}),
    ("sweep", {"jobs": [2]}),
    ("sweep", {"hw_tables": ["tables.json"]}),
    ("sweep", {"block_sizes": ["8"]}),
    ("sweep", {"trials": 2.5}),
    ("sweep", {"technologies": "sram"}),
    ("train", {"ngram": 4.9}),
    ("train", {"tie_seed": 3.9}),
    ("train", {"item_seed": "5"}),
    ("train", {"task": ["csv"]}),
    pytest.param("eval-hw", {"voltage": 10**400}, id="eval-hw-voltage=10**400"),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]!r}" for k in v))
def test_config_value_of_wrong_type_is_a_config_error(command, setting, unseen_label_csv,
                                                      tmp_path, capsys):
    """A --config value of another JSON type than its setting's (null, a
    list, a scalar for a list, a number given as a string, a float for an
    int, a path that is not a string, a number too large to convert) exits
    E-CONFIG naming the key, and writes nothing."""
    assert _run_configured(command, setting, unseen_label_csv, tmp_path) != 0
    err = capsys.readouterr().err
    key = repr(list(setting)[0])
    assert err.startswith("error: E-CONFIG:") and key in err, err
    _assert_nothing_written(tmp_path)


def _run_configured(command, setting, unseen_label_csv, tmp_path, *flags):
    """The exit code of ``command`` on the 64-bit csv task, configured by a
    --config file of working settings updated with ``setting``, and ``flags``.
    ``eval-hw`` is ``eval`` under a hardware table."""
    train, test, model = unseen_label_csv
    base = {
        "train": {"task": "csv", "train_csv": str(train), "dimension": 64},
        "eval": {"task": "csv", "test_csv": str(test)},
        "eval-hw": {"task": "csv", "test_csv": str(test), "technology": "sram",
                    "voltage": 1.0, "block_size": 8, "trials": 2},
        "sweep": {"task": "csv", "train_csv": str(train), "test_csv": str(test),
                  "voltages": [1.0], "block_sizes": [8], "precisions": [4],
                  "dimensions": [64], "trials": 2},
    }[command]
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps({**base, **setting}))
    argv = {"train": ["train", "--output", str(tmp_path / "trained.json")],
            "sweep": ["sweep", "--output", str(out)]}.get(
                command, ["eval", "--model", str(model), "--output", str(out)])
    return run_cli(*argv, "--config", str(config), *flags)


def _assert_nothing_written(tmp_path):
    """No output of ``_run_configured`` and no resume log exists."""
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "trained.json").exists()
    assert not (tmp_path / "out.csv.partial.jsonl").exists()


@pytest.mark.parametrize("command, setting", [
    ("sweep", {"trails": 3}),
    ("sweep", {"block_size": 7}),
    ("eval", {"dimension": 64}),
    ("eval", {"item_seed": 42}),
    ("train", {"technologies": ["sram"]}),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]!r}" for k in v))
def test_config_key_that_is_not_a_setting_is_a_config_error(command, setting, unseen_label_csv,
                                                            tmp_path, capsys):
    """A --config key that is not one of the subcommand's settings, a
    misspelled one or one of another subcommand, exits E-CONFIG naming the
    key and the file, and writes nothing: it is not hashed and ignored."""
    assert _run_configured(command, setting, unseen_label_csv, tmp_path) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and repr(list(setting)[0]) in err, err
    assert str(tmp_path / "config.json") in err, err
    _assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command, key, value, code", [
    ("train", "task", "speech", "E-CONFIG"),
    ("train", "dimension", 0, "E-USAGE"),
    ("eval", "task", "speech", "E-CONFIG"),
    ("sweep", "task", "speech", "E-CONFIG"),
    ("eval-hw", "technology", "rram", "E-CONFIG"),
], ids=["train-task-speech", "train-dimension-0", "eval-task-speech", "sweep-task-speech",
        "eval-hw-technology-rram"])
def test_flag_and_config_key_refuse_a_value_alike(command, key, value, code, unseen_label_csv,
                                                  tmp_path, capsys):
    """A flag and its config key are one setting: a value that neither
    allows exits with the same line from either (E-CONFIG for a name no
    choice has, E-USAGE for a number out of range), and writes nothing."""
    errors = []
    for setting, flags in (({}, ("--" + key.replace("_", "-"), str(value))), ({key: value}, ())):
        assert _run_configured(command, setting, unseen_label_csv, tmp_path, *flags) != 0
        errors.append(capsys.readouterr().err)
        _assert_nothing_written(tmp_path)
    assert errors[0] == errors[1], errors
    assert errors[0].startswith(f"error: {code}:") and repr(value) in errors[0], errors


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_dimension_below_one_is_a_usage_error(command, tmp_path, capsys):
    """A dimension below 1 exits E-USAGE with one message from train and
    sweep, before the corpus directory, which does not exist, is read."""
    missing = str(tmp_path / "nope")
    flags = {"train": ["--dimension", "0"],
             "sweep": ["--queries", missing, "--dimensions", "0"]}[command]
    assert run_cli(command, "--task", "language", "--train-dir", missing, *flags,
                   "--output", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: E-USAGE: dimension must be >= 1, got 0\n"
    assert not list(tmp_path.iterdir())


# The option strings of each subcommand, -h and --help included.
_OPTIONS = {
    "train": "--config --deterministic --dimension --help --item-seed --ngram --output --seed "
             "--task --threshold --tie-seed --train-csv --train-dir --train-images "
             "--train-labels -h",
    "eval": "--block-size --config --deterministic --help --hw-tables --model --ngram "
            "--output --precision --queries --replicas --seed --task --technology --test-csv "
            "--test-images --test-labels --threshold --trials --voltage -h",
    "sweep": "--block-sizes --config --deterministic --dimensions --help --hw-tables "
             "--item-seed --jobs --ngram --output --precisions --queries --replicas --seed "
             "--task --technologies --test-csv --test-images --test-labels --threshold "
             "--tie-seed --train-csv --train-dir --train-images --train-labels --trials "
             "--voltages -h",
    "pareto": "--help --input --output -h",
    "hwmodel": "--block-size --help --output --tables --technology --voltage -h",
    "export": "--help --model --output --tables -h",
}


def test_subcommand_option_strings():
    """Each subcommand keeps its flags; those of train, eval and sweep are
    their settings, --x-y for the setting x_y, besides --config,
    --deterministic, --model and --output."""
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subcommands) == set(_OPTIONS)
    for command, options in _OPTIONS.items():
        flags = sorted(o for action in subcommands[command]._actions for o in action.option_strings)
        assert flags == options.split(), command
    for command, settings in cli.SETTINGS.items():
        assert ({"--" + name.replace("_", "-") for name in settings}
                | {"-h", "--help", "--config", "--deterministic", "--model", "--output"}
                >= set(_OPTIONS[command].split())), command


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_replica_count_beyond_the_float_limit_is_refused(command, unseen_label_csv, tmp_path,
                                                        capsys):
    """A replica count whose binomial coefficients do not convert to a float
    (r = 1031) exits E-USAGE naming the limit, 1029, and writes nothing, as
    an even count does; the limit itself evaluates."""
    replicas = ["1031", "4"] + (["1029"] if command == "eval" else [])
    for r in replicas:
        code = _run_configured("eval-hw" if command == "eval" else command, {},
                               unseen_label_csv, tmp_path, "--replicas", r)
        err = capsys.readouterr().err
        if r == "1029":
            assert code == 0, err
        else:
            assert code != 0
            assert err.startswith("error: E-USAGE: replica count must be odd and in "
                                  f"[1, 1029], got {r}"), err
            _assert_nothing_written(tmp_path)


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_below_one_is_a_usage_error(jobs, unseen_label_csv, tmp_path, capsys):
    """--jobs below 1 exits E-USAGE, as --trials below 1 does, from a flag
    and a config key alike, and writes nothing: it does not run serially."""
    errors = []
    for setting, flags in (({}, ("--jobs", str(jobs))), ({"jobs": jobs}, ())):
        assert _run_configured("sweep", setting, unseen_label_csv, tmp_path, *flags) != 0
        errors.append(capsys.readouterr().err)
        _assert_nothing_written(tmp_path)
        assert not (tmp_path / "out_pareto.csv").exists()
    assert errors[0] == errors[1], errors
    assert errors[0].startswith(f"error: E-USAGE: jobs must be >= 1, got {jobs}"), errors


@pytest.mark.parametrize("setting, needs", [
    ({"block_size": 15, "voltage": 0.5, "replicas": 3, "trials": 5},
     ["'voltage' needs --technology", "'replicas' needs --technology",
      "'trials' needs --technology"]),
    ({"precision": 3, "hw_tables": "/nonexistent.json", "trials": 0},
     ["'hw_tables' needs --technology", "'precision' needs --block-size or --technology",
      "'trials' needs --technology"]),
    ({"voltage": 0.7}, ["'voltage' needs --technology"]),
    ({"block_size": 8, "replicas": 1}, ["'replicas' needs --technology"]),
], ids=["blocked-with-hardware-settings", "ideal-with-blocked-settings", "ideal-voltage",
        "blocked-replicas"])
def test_eval_setting_its_mode_does_not_read_is_refused(setting, needs, unseen_label_csv,
                                                        tmp_path, capsys):
    """An eval setting that the run's mode does not read (a block size or a
    technology selects blocked inference, a technology the hardware model)
    exits E-CONFIG naming every such setting and what it needs, from flags
    and config keys alike, and writes nothing: it is not dropped without a
    message."""
    errors = []
    flags = [x for key, value in setting.items()
             for x in ("--" + key.replace("_", "-"), str(value))]
    for config, argv in ((setting, ()), ({}, flags)):
        assert _run_configured("eval", config, unseen_label_csv, tmp_path, *argv) != 0
        errors.append(capsys.readouterr().err)
        _assert_nothing_written(tmp_path)
    assert errors[0] == errors[1], errors
    assert errors[0] == f"error: E-CONFIG: {'; '.join(needs)}\n", errors


@pytest.mark.parametrize("flag", ["--train-csv", "--queries"])
def test_byte_order_mark_is_not_data(flag, row_csvs, tmp_path, capsys):
    """A label,bits or label,text file saved with a UTF-8 byte-order mark
    reads as the file without it: the mark does not turn the header into a row."""
    bits, queries, model = row_csvs
    path, out = tmp_path / "rows.csv", tmp_path / "out"
    argv = {"--train-csv": ["train", "--task", "csv", "--dimension", "64"],
            "--queries": ["eval", "--model", str(model), "--task", "language",
                          "--deterministic"]}[flag]
    results = []
    for mark in ("", "\ufeff"):
        path.write_text(mark + "".join(bits if flag == "--train-csv" else queries),
                        encoding="utf-8")
        assert run_cli(*argv, flag, str(path), "--output", str(out)) == 0
        results.append((capsys.readouterr().out, out.read_bytes()))
    assert results[0] == results[1]


def test_eval_precision_above_the_table_is_a_config_error(unseen_label_csv, tmp_path, capsys):
    """--precision above the hardware table's maximum exits E-CONFIG and
    writes nothing."""
    _, test, model = unseen_label_csv
    out = tmp_path / "out.csv"
    assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                   "--technology", "sram", "--block-size", "15", "--precision", "9",
                   "--output", str(out)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and "exceeds" in err, err
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("--block-sizes", "7,7"), ("--voltages", "0.7,0.701")])
def test_sweep_axis_naming_one_configuration_twice_is_refused(axis, values, unseen_label_csv,
                                                              tmp_path, capsys):
    """Two values of one axis that make one configuration (voltages equal to
    10 mV share a table and a resume key) exit E-USAGE naming the axis."""
    train, test, _ = unseen_label_csv
    flags = {"--voltages": "1.0", "--block-sizes": "8", **{axis: values}}
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--task", "csv", "--train-csv", str(train), "--test-csv", str(test),
                   *[x for flag in flags.items() for x in flag], "--precisions", "4",
                   "--dimensions", "64", "--trials", "2", "--output", str(out)) != 0
    err = capsys.readouterr().err
    axis_name = axis[2:].replace("-", "_")
    assert err.startswith(f"error: E-USAGE: sweep axis '{axis_name}' names one "
                          "configuration twice"), err
    assert not out.exists() and not (tmp_path / "r.csv.partial.jsonl").exists()


def test_sweep_catalog_gap_fails_fast(small_corpus_dir, tmp_path, capsys):
    train_dir, queries_csv = small_corpus_dir
    code = run_cli("sweep", "--task", "language", "--train-dir", str(train_dir),
                   "--queries", str(queries_csv), "--voltages", "0.7",
                   "--block-sizes", "9", "--precisions", "7",
                   "--dimensions", "300", "--output", str(tmp_path / "r.csv"))
    assert code != 0
    assert capsys.readouterr().err.startswith("error: E-CONFIG:")
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# hwmodel / export


def test_hwmodel_validate_and_errorprob(tmp_path, capsys):
    assert run_cli("hwmodel", "validate", "--technology", "sram",
                   "--voltage", "0.7") == 0
    assert "pass all invariants" in capsys.readouterr().out
    assert run_cli("hwmodel", "errorprob", "--technology", "sram",
                   "--voltage", "0.7", "--block-size", "15") == 0
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines()[1:]]
    errs = {int(r[3]): float(r[4]) for r in rows}
    assert errs[0] == 0.0
    assert max(errs.values()) == pytest.approx(0.39, abs=0.01)
    path = tmp_path / "errorprob.csv"
    assert run_cli("hwmodel", "errorprob", "--technology", "sram", "--voltage", "0.7",
                   "--block-size", "15", "--output", str(path)) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text() == out


def test_hwmodel_errorprob_is_one_minus_the_confusion_diagonal(capsys):
    """errorprob prints 1 - diag(confusion_from_latency(e)) at 6 decimals for
    each table e it selects, in the catalog's order."""
    assert run_cli("hwmodel", "errorprob", "--voltage", "0.7") == 0
    want = ["technology,voltage_V,block_size,distance,error_probability"]
    for e in hwmodel.default_catalog().select(voltage=0.7):
        errs = 1 - np.diag(hwmodel.confusion_from_latency(e))
        want += [f"{e.technology},{e.voltage:g},{e.block_size},{h},{err:.6f}"
                 for h, err in enumerate(errs)]
    assert capsys.readouterr().out.splitlines() == want


def test_table_keys_outside_the_format_are_ignored(tmp_path, capsys):
    """A table holding a temperature_C, whatever its value, and another
    unknown key loads, validates, and exports as the table without them."""
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert run_cli("export", "hw-tables", "--output", str(plain)) == 0
    table = json.loads(plain.read_text())["tables"][0]
    plain.write_text(json.dumps({"tables": [table]}))
    assert run_cli("export", "hw-tables", "--tables", str(plain), "--output", str(want)) == 0
    for temperature in (85.0, "hot", -1e9):
        extra.write_text(json.dumps(
            {"tables": [dict(table, temperature_C=temperature, vendor="lab")]}))
        assert run_cli("hwmodel", "validate", "--tables", str(extra)) == 0
        assert run_cli("export", "hw-tables", "--tables", str(extra), "--output", str(got)) == 0
        assert got.read_bytes() == want.read_bytes(), temperature
    assert capsys.readouterr().out.count("ok: 1 table entries pass all invariants") == 3


def test_hwmodel_confusion_rows_sum_to_one(capsys):
    assert run_cli("hwmodel", "confusion", "--technology", "fefinfet",
                   "--voltage", "0.5", "--block-size", "15") == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    for row in rows:
        # printed at 6 decimals, so row sums carry up to ~4e-6 rounding
        assert sum(float(x) for x in row.split(",")) == pytest.approx(1.0, abs=1e-5)


def test_hwmodel_bad_filter(capsys):
    assert run_cli("hwmodel", "validate", "--block-size", "99") != 0
    assert capsys.readouterr().err.startswith("error: E-CONFIG:")


def test_hwmodel_voltage_filter_matches_to_10_mv(capsys):
    """--voltage selects tables as the catalog looks them up for eval: voltages
    equal to 10 mV are one."""
    outputs = []
    for voltage in ("0.7", "0.701"):
        assert run_cli("hwmodel", "errorprob", "--technology", "sram", "--voltage", voltage,
                       "--block-size", "15") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "\nsram,0.7,15,0,0.000000\n" in outputs[0]


def test_hwmodel_refuses_two_tables_for_one_operating_point(tmp_path, capsys):
    """A tables file holding the SRAM 0.7 V N = 7 table twice, the second at
    0.701 V (the same table to 10 mV) with tripled sigma, exits E-CONFIG naming
    the file, both tables and the operating point."""
    exported = tmp_path / "all.json"
    assert run_cli("export", "hw-tables", "--output", str(exported)) == 0
    [table] = [t for t in json.loads(exported.read_text())["tables"]
               if (t["technology"], t["voltage_V"], t["block_size"]) == ("sram", 0.7, 7)]
    twin = dict(table, voltage_V=0.701, sigma_ns=[3 * s for s in table["sigma_ns"]])
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"tables": [table, twin]}))
    capsys.readouterr()
    assert run_cli("hwmodel", "validate", "--tables", str(dup)) != 0
    err = capsys.readouterr().err
    assert err == (f"error: E-CONFIG: {dup}: tables[0] and tables[1] both describe "
                   "technology=sram voltage_V=0.7 block_size=7\n"), err


@pytest.mark.parametrize("case", ["config-array", "export-without-model", "ngram-0",
                                  "corpus-without-txt"])
def test_refusal_names_its_flag_or_file(case, small_corpus_dir, tmp_path, capsys):
    """A --config holding a JSON array, export model-csv without --model, an
    n-gram size of 0 and a corpus directory without a .txt file each exit
    with their code and a message naming the flag, setting or file, and
    write nothing."""
    train_dir, _ = small_corpus_dir
    out, config, empty = tmp_path / "out.json", tmp_path / "config.json", tmp_path / "corpora"
    config.write_text('["task", "language"]')
    empty.mkdir()
    (empty / "notes.md").write_text("not a corpus")
    train = ["train", "--task", "language", "--dimension", "100", "--output", str(out)]
    argv, error = {
        "config-array": ([*train, "--config", str(config)],
                         f"E-CONFIG: {config}: config must be a JSON object"),
        "export-without-model": (["export", "model-csv", "--output", str(out)],
                                 "E-CONFIG: export model-csv requires --model"),
        "ngram-0": ([*train, "--train-dir", str(train_dir), "--ngram", "0"],
                    "E-USAGE: n-gram size must be in [1, 13], got 0"),
        "corpus-without-txt": ([*train, "--train-dir", str(empty)],
                               f"E-CONFIG: no .txt corpus files in {empty}"),
    }[case]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpora"]


def test_filtered_hwmodel_builds_only_its_tables(monkeypatch, capsys):
    """A filtered hwmodel command calibrates only the tables it prints, in one
    call, and prints the rows of the unfiltered command that match them."""
    built = []
    real = hwmodel._default_tables

    def spy(keys):
        built.append(list(keys))
        return real(keys)

    monkeypatch.setattr(hwmodel, "_default_tables", spy)
    monkeypatch.setattr(hwmodel, "default_catalog", hwmodel.default_catalog.__wrapped__)
    assert run_cli("hwmodel", "errorprob", "--technology", "sram", "--voltage", "0.7",
                   "--block-size", "15") == 0
    assert built == [[("sram", 0.7, 15, 7)]]
    filtered = capsys.readouterr().out.splitlines()
    assert run_cli("hwmodel", "errorprob") == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert filtered == [header] + [row for row in rows if row.startswith("sram,0.7,15,")]
    assert len(filtered) == 9


@pytest.mark.parametrize("flags, tables", [
    ("--technology sram --voltage 0.7 --block-size 8 --trials 2", [[("sram", 0.7, 8, 7)]]),
    ("", []),
    ("--block-size 15 --precision 7", []),
    ("--technology none --block-size 15", []),
    ("--technology none", []),
], ids=["hardware", "ideal", "noise-free-blocked", "none-blocked", "none-ideal"])
def test_eval_builds_only_its_table(flags, tables, unseen_label_csv, monkeypatch, capsys):
    """A hardware eval calibrates its one table, in one call; the noise-free
    evals build none and never open the default catalog."""
    _, test, model = unseen_label_csv
    built, opened = [], []
    real, uncached = hwmodel._default_tables, hwmodel.default_catalog.__wrapped__

    def spy(keys):
        built.append(list(keys))
        return real(keys)

    def catalog():
        opened.append(True)
        return uncached()

    monkeypatch.setattr(hwmodel, "_default_tables", spy)
    monkeypatch.setattr(hwmodel, "default_catalog", catalog)
    assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test),
                   *flags.split()) == 0
    assert built == tables
    assert len(opened) == len(tables)


def test_export_and_reload_hw_tables(tmp_path, capsys):
    from hdtcam.hwmodel import load_hw_tables

    path = tmp_path / "tables.json"
    assert run_cli("export", "hw-tables", "--output", str(path)) == 0
    cat = load_hw_tables(path)
    keys = [(e.technology, e.voltage, e.block_size) for e in cat.select()]
    assert ("sram", 0.7, 15) in keys and ("fefinfet", 0.5, 7) in keys


def test_malformed_model_and_tables_exit_codes(tmp_path, capsys):
    model, out = tmp_path / "m.json", tmp_path / "c.csv"
    for doc in ({"version": 1, "dimension": 16},
                {"version": 1, "dimension": 16, "classes": [{"label": "a", "bits": "ff"}]}):
        model.write_text(json.dumps(doc))
        assert run_cli("export", "model-csv", "--model", str(model),
                       "--output", str(out)) != 0
        assert capsys.readouterr().err.startswith("error: E-FORMAT:")
    assert not out.exists()
    tables = tmp_path / "t.json"
    tables.write_text('{"entries": []}')
    assert run_cli("hwmodel", "validate", "--tables", str(tables)) != 0
    assert capsys.readouterr().err.startswith("error: E-CONFIG:")
    # a measured table off the default voltage grid loads and validates
    assert run_cli("export", "hw-tables", "--output", str(tables)) == 0
    doc = json.loads(tables.read_text())
    doc["tables"] = [dict(doc["tables"][0], voltage_V=0.75)]
    tables.write_text(json.dumps(doc))
    assert run_cli("hwmodel", "validate", "--tables", str(tables),
                   "--voltage", "0.75") == 0
    assert "ok: 1 table entries" in capsys.readouterr().out
    # fields of another JSON type and non-finite numbers are config errors that
    # name the table
    entry = doc["tables"][0]
    bad = [("energy_fJ", "abc"), ("block_size", float("inf")),
           ("precision", float("nan")), ("block_size", 2.7), ("voltage_V", "0.75"),
           ("mu_ns", [str(x) for x in entry["mu_ns"]]), ("precision", True),
           ("voltage_V", -3.0), ("voltage_V", 0)]
    for value in (float("nan"), float("inf"), -float("inf")):
        bad += [("voltage_V", value),
                ("mu_ns", [value] + entry["mu_ns"][1:]),
                ("sigma_ns", entry["sigma_ns"][:-1] + [value]),
                ("match_timeout_ns", value), ("energy_fJ", value),
                ("energy_fJ", [value] + entry["energy_fJ"][1:])]
    for field, value in bad:
        tables.write_text(json.dumps({"tables": [dict(entry, **{field: value})]}))
        assert run_cli("hwmodel", "validate", "--tables", str(tables),
                       "--voltage", "0.75") != 0
        err = capsys.readouterr().err
        assert err.startswith("error: E-CONFIG:") and "tables[0]" in err, (field, value)
    # finite latencies whose midpoint overflows: thresholds [inf, 1.7e308]
    overflow = dict(entry, block_size=3, precision=2, mu_ns=[1.6e308, 1.5e308],
                    sigma_ns=[1.0, 1.0], match_timeout_ns=1.7e308, energy_fJ=1.0)
    tables.write_text(json.dumps({"tables": [overflow]}))
    assert run_cli("hwmodel", "validate", "--tables", str(tables)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-CONFIG:") and "tables[0]" in err and "ascending" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["sweep", "eval-hw"])
def test_table_whose_metrics_overflow_is_a_config_error(command, unseen_label_csv, tmp_path,
                                                        capsys):
    """A table that passes validation, but whose energies overflow a point's
    energy, is refused with one E-CONFIG line naming the point's
    configuration, and no numpy warning, before the point is logged or
    written: no results file and no resume log."""
    tables = tmp_path / "t.json"
    assert run_cli("export", "hw-tables", "--output", str(tables)) == 0
    [entry] = [e for e in json.loads(tables.read_text())["tables"]
               if (e["technology"], e["voltage_V"], e["block_size"]) == ("sram", 1.0, 8)]
    tables.write_text(json.dumps({"tables": [dict(entry, energy_fJ=1e308)]}))
    assert run_cli("hwmodel", "validate", "--tables", str(tables)) == 0
    capsys.readouterr()
    assert _run_configured(command, {"hw_tables": str(tables)}, unseen_label_csv, tmp_path) == 2
    err = capsys.readouterr().err
    precision = 4 if command == "sweep" else 7
    assert err.startswith(f"error: E-CONFIG: technology=sram voltage_V=1.0 block_size=8 "
                          f"precision={precision} dimension=64 replicas=1: a metric is not "
                          "finite (energy inf pJ"), err
    assert err.count("\n") == 1, err
    _assert_nothing_written(tmp_path)
    assert not (tmp_path / "out_pareto.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_whose_latency_draws_can_overflow_is_refused_when_loaded(unseen_label_csv,
                                                                       tmp_path, capsys):
    """A table whose slowest latency draw, mu + Z_MAX sigma with Z_MAX the
    largest quantile ``slowest_latency`` reads, is not finite fails
    validation with one E-CONFIG line naming it, and a hardware eval under it
    exits so whatever its seed; a table below the bound loads."""
    _, test, model = unseen_label_csv
    tables = tmp_path / "t.json"
    assert run_cli("export", "hw-tables", "--output", str(tables)) == 0
    [entry] = [e for e in json.loads(tables.read_text())["tables"]
               if (e["technology"], e["voltage_V"], e["block_size"]) == ("sram", 1.0, 8)]
    z_max = -statistics.NormalDist().inv_cdf(np.finfo(float).tiny)
    limit = (sys.float_info.max - max(entry["mu_ns"])) / z_max
    tables.write_text(json.dumps({"tables": [dict(entry, sigma_ns=[limit / 2] * 7)]}))
    assert run_cli("hwmodel", "validate", "--tables", str(tables)) == 0
    tables.write_text(json.dumps({"tables": [dict(entry, sigma_ns=[1e308] * 7)]}))
    query = tmp_path / "one.csv"
    query.write_text("\n".join(test.read_text().splitlines()[:2]) + "\n")
    capsys.readouterr()
    for argv in [["hwmodel", "validate", "--tables", str(tables)]] + [
            ["eval", "--model", str(model), "--task", "csv", "--test-csv", str(query),
             "--technology", "sram", "--voltage", "1.0", "--block-size", "8", "--trials", "1",
             "--hw-tables", str(tables), "--seed", str(seed)] for seed in range(10)]:
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: E-CONFIG: ") and "tables[0]" in err, err
        assert "sigma, the slowest latency a read can draw, must be finite" in err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--tables", "--config", "--model", "--input", "--train-csv"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"tables": [1, ', b"label,bits\na,0\xff1\n"],
                         ids=["not-utf8", "torn-json", "utf8-then-bad-byte"])
def test_unreadable_input_file_is_a_format_error(tmp_path, capsys, flag, content):
    """A file that is not UTF-8, or a JSON file cut short, exits E-FORMAT
    naming the file, whichever flag reads it."""
    path = tmp_path / "input.bin"
    path.write_bytes(content)
    out = str(tmp_path / "out.csv")
    argv = {
        "--tables": ["hwmodel", "validate", "--tables", str(path)],
        "--config": ["sweep", "--config", str(path), "--output", out],
        "--model": ["export", "model-csv", "--model", str(path), "--output", out],
        "--input": ["pareto", "--input", str(path), "--output", out],
        "--train-csv": ["train", "--task", "csv", "--train-csv", str(path),
                        "--output", str(tmp_path / "m.json")],
    }[flag]
    assert run_cli(*argv) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(path) in err, err
    assert not (tmp_path / "out.csv").exists()


def test_export_model_csv(trained_model, tmp_path):
    from hdtcam.encoders import load_hypervector_csv

    out = tmp_path / "classes.csv"
    assert run_cli("export", "model-csv", "--model", str(trained_model),
                   "--output", str(out)) == 0
    matrix, labels, dimension = load_hypervector_csv(out)
    memory, _ = load_model(trained_model)
    assert labels == memory.labels and dimension == memory.dimension
    assert np.array_equal(matrix, memory.class_matrix)


@pytest.mark.parametrize("label", ["a,b", " c", "c ", "c\nd", "c\rd", "c\td "])
def test_export_model_csv_refuses_a_label_that_does_not_read_back(label, tmp_path, capsys):
    """A label the label,bits reader would not read back unchanged exits
    E-FORMAT naming it, and no file is left behind."""
    model, out = tmp_path / "m.json", tmp_path / "classes.csv"
    save_model(model, AssociativeMemory(["ok", label], pack(np.eye(2, 16)), 16))
    assert run_cli("export", "model-csv", "--model", str(model), "--output", str(out)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and repr(label) in err, err
    assert not out.exists() and not (tmp_path / "classes.csv.tmp").exists()


class _TornRows(list):
    """Rows whose iteration fails after the first, as a full disk would."""

    def __iter__(self):
        yield self[0]
        raise OSError(28, "No space left on device")


def test_export_failing_mid_write_keeps_the_old_file(trained_model, tmp_path, monkeypatch,
                                                     capsys):
    out = tmp_path / "classes.csv"
    assert run_cli("export", "model-csv", "--model", str(trained_model),
                   "--output", str(out)) == 0
    old = out.read_bytes()
    labeled_set = encoders.LabeledSet
    monkeypatch.setattr(encoders, "LabeledSet",
                        lambda dimension: labeled_set(dimension, _TornRows()))
    assert run_cli("export", "model-csv", "--model", str(trained_model),
                   "--output", str(out)) != 0
    assert capsys.readouterr().err.startswith("error: E-IO:")
    assert out.read_bytes() == old
    assert not (tmp_path / "classes.csv.tmp").exists()


# ---------------------------------------------------------------------------
# model and IDX loaders


@pytest.mark.parametrize("flags", [(), ("--block-size", "15", "--precision", "7"),
                                   ("--technology", "sram", "--voltage", "0.5", "--trials", "2")],
                         ids=["ideal", "blocked", "sram"])
def test_model_padding_bits_do_not_change_eval(flags, small_corpus_dir, tmp_path):
    """A model of odd dimension whose class rows have their padding bits set
    by hand evaluates to the CSV of the clean model."""
    train_dir, queries_csv = small_corpus_dir
    clean, dirty = tmp_path / "clean.json", tmp_path / "dirty.json"
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "1001", "--output", str(clean)) == 0
    doc = json.loads(clean.read_text())
    for entry in doc["classes"]:
        entry["bits"] = entry["bits"][:-2] + f"{int(entry['bits'][-2:], 16) | 0xfe:02x}"
    dirty.write_text(json.dumps(doc))
    outputs = []
    for model in (clean, dirty):
        out = tmp_path / f"{model.stem}.csv"
        assert run_cli("eval", "--model", str(model), "--task", "language", "--queries",
                       str(queries_csv), *flags, "--deterministic", "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("doc", [
    '{"version": 1, "dimension": 1e400, "classes": [{"label": "a", "bits": "ffff"}]}',
    '{"version": 1, "dimension": 16, "classes": [{"label": "a", "bits": "ffff"}], '
    '"seed_metadata": [1]}',
    *('{"version": 1, "dimension": %s, "classes": [{"label": "a", "bits": "ffff"}]}' % d
      for d in ('"16"', "16.0", "16.5")),
], ids=["dimension-overflows", "metadata-not-an-object", "dimension-string", "dimension-float",
        "dimension-fraction"])
def test_malformed_model_is_a_format_error(doc, tmp_path, capsys):
    model, test = tmp_path / "m.json", tmp_path / "test.csv"
    model.write_text(doc)
    test.write_text("label,bits\na," + "01" * 8 + "\n")
    assert run_cli("eval", "--model", str(model), "--task", "csv", "--test-csv", str(test)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(model) in err, err


@pytest.mark.parametrize("flag", ["--config", "--model", "--tables"])
def test_json_integer_too_long_to_convert_is_a_format_error(flag, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"seed": ' + "9" * 5000 + "}")
    argv = {"--config": ["train", "--config", str(path)],
            "--model": ["export", "model-csv", "--model", str(path)],
            "--tables": ["hwmodel", "validate", "--tables", str(path)]}[flag]
    assert run_cli(*argv, "--output", str(tmp_path / "out")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(path) in err, err


def _assert_documented_exit(argv, refuse=False):
    """Run the CLI quietly; it exits with a documented E-code, or with 0
    unless ``refuse`` (the input is known to be malformed)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*argv)
    assert code != 0 or not refuse, f"exit 0 on malformed input: {argv}"
    assert code == 0 or re.match(r"error: E-(?!INTERNAL)[A-Z]+: ", err.getvalue()), err.getvalue()


def _bad_model_label(blob):
    """Whether a model JSON parses to a class whose label is not a
    non-empty string."""
    try:
        return any(not (isinstance(c["label"], str) and c["label"])
                   for c in json.loads(blob)["classes"])
    except (ValueError, TypeError, KeyError, IndexError):
        return False


def _empty_label_row(blob):
    """Whether a ``label,<payload>`` file holds a row whose label is empty
    once stripped, its lines split as a text-mode read splits them."""
    try:
        text = blob.decode()
    except UnicodeDecodeError:
        return False
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return any("," in line and not line.partition(",")[0].strip() for line in lines)


def _bad_seed_metadata(blob):
    """Whether a model JSON parses to seed metadata holding a task that is
    not a string, or an item or tie seed that is not an integer."""
    try:
        meta = json.loads(blob)["seed_metadata"]
    except (ValueError, TypeError, KeyError):
        return False
    return isinstance(meta, dict) and (
        not isinstance(meta.get("task", ""), str)
        or any(isinstance(meta.get(key, 0), bool) or not isinstance(meta.get(key, 0), int)
               for key in ("item_seed", "tie_seed")))


_JSON_VALUES = st.sampled_from([None, True, False, 0, -1, 1, 7.5, 2**70, float("inf"),
                                float("nan"), "", "x", "csv", "ff", [], {}, [1], {"a": 1}])


def _json_paths(node, path=()):
    """The path of every value under ``node`` (the root excluded)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@pytest.fixture(scope="module")
def csv_model(tmp_path_factory):
    """A 64-bit csv task: its model's JSON and a test set."""
    root = tmp_path_factory.mktemp("csv_model")
    rows = ["".join(r) for r in np.random.default_rng(9).integers(0, 2, size=(3, 64)).astype(str)]
    train, test, model = root / "train.csv", root / "test.csv", root / "model.json"
    train.write_text("label,bits\n" + "".join(f"{c},{r}\n" for c, r in zip("abc", rows)))
    test.write_text("label,bits\n" + "".join(f"{c},{r}\n" for c, r in zip("acb", rows)))
    assert run_cli("train", "--task", "csv", "--train-csv", str(train), "--dimension", "64",
                   "--output", str(model)) == 0
    return json.loads(model.read_text()), test


@pytest.mark.parametrize("op", ["value", "drop", "byte", "truncate"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_model_json_fuzz(op, csv_model, tmp_path_factory, data):
    """A model JSON with a value replaced or dropped, a byte changed or its
    end cut exits 0 or a documented E-code from eval (task and seeds from
    the model's metadata) and from export, never E-INTERNAL, and never 0
    with a label that is not a non-empty string, nor from eval with a task
    or seed of another JSON type in the metadata."""
    doc, test = csv_model
    doc = json.loads(json.dumps(doc))
    if op in ("value", "drop"):
        *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))))
        node = doc
        for k in parents:
            node = node[k]
        if op == "drop":
            del node[key]
        else:
            node[key] = data.draw(_JSON_VALUES)
    blob = json.dumps(doc, indent=1).encode()
    if op == "byte":
        k = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:k] + bytes([data.draw(st.integers(0, 255))]) + blob[k + 1:]
    elif op == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    root = tmp_path_factory.getbasetemp()
    model = root / "fuzz_model.json"
    model.write_bytes(blob)
    refuse = _bad_model_label(blob)
    _assert_documented_exit(["eval", "--model", str(model), "--test-csv", str(test)],
                            refuse or _bad_seed_metadata(blob))
    _assert_documented_exit(["export", "model-csv", "--model", str(model),
                             "--output", str(root / "fuzz_classes.csv")], refuse)


@pytest.fixture(scope="module")
def idx_files():
    """The bytes of a small IDX image file and its label file."""
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(6, 4, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    return (struct.pack(">IIII", 0x803, 6, 4, 4) + images.tobytes(),
            struct.pack(">II", 0x801, 6) + labels.tobytes())


_HEADER_WORDS = st.sampled_from([0, 1, 2, 3, 4, 6, 16, 96, 0x801, 0x803, 2**16, 2**31,
                                 2**32 - 1])


@pytest.mark.parametrize("op", ["header", "byte", "truncate", "append"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_idx_fuzz(op, idx_files, tmp_path_factory, data):
    """An IDX image or label file with a header word replaced, a byte
    changed, its end cut or bytes appended trains to a model or exits a
    documented E-code, never E-INTERNAL."""
    blobs = list(idx_files)
    i = data.draw(st.integers(0, 1))
    blob = blobs[i]
    if op == "header":
        k = data.draw(st.integers(0, 3 if i == 0 else 1))
        blob = blob[:4 * k] + struct.pack(">I", data.draw(_HEADER_WORDS)) + blob[4 * k + 4:]
    elif op == "byte":
        k = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:k] + bytes([data.draw(st.integers(0, 255))]) + blob[k + 1:]
    elif op == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=20))
    blobs[i] = blob
    root = tmp_path_factory.getbasetemp()
    images, labels = root / "fuzz_images.idx", root / "fuzz_labels.idx"
    images.write_bytes(blobs[0])
    labels.write_bytes(blobs[1])
    _assert_documented_exit(["train", "--task", "mnist", "--train-images", str(images),
                             "--train-labels", str(labels), "--dimension", "64",
                             "--output", str(root / "fuzz_model.json")])


# ---------------------------------------------------------------------------
# label,<payload> row files


@pytest.fixture(scope="module")
def row_csvs(small_corpus_dir, tmp_path_factory):
    """The lines of a 64-bit ``label,bits`` training set, and of a
    ``label,text`` query set with a language model to evaluate it."""
    train_dir, queries_csv = small_corpus_dir
    model = tmp_path_factory.mktemp("row_csvs") / "model.json"
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "256", "--output", str(model)) == 0
    rows = np.random.default_rng(5).integers(0, 2, size=(4, 64)).astype(str)
    bits = ["label,bits\n"] + [f"{c},{''.join(r)}\n" for c, r in zip("abca", rows)]
    return bits, queries_csv.read_text().splitlines(keepends=True)[:6], model


@pytest.mark.parametrize("content", ["", "label,text\n \n\n"], ids=["empty", "header-only"])
@pytest.mark.parametrize("flag", ["--train-csv", "--queries"])
def test_row_file_without_rows_is_a_format_error(flag, content, row_csvs, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(content)
    argv = {"--train-csv": ["train", "--task", "csv", "--output", str(tmp_path / "m.json")],
            "--queries": ["eval", "--model", str(row_csvs[2]), "--task", "language"]}[flag]
    assert run_cli(*argv, flag, str(path)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(path) in err, err


@pytest.mark.parametrize("flag", ["--train-csv", "--queries"])
def test_empty_label_row_is_a_format_error(flag, row_csvs, tmp_path, capsys):
    """A row whose label is empty or blank exits E-FORMAT naming the file and row."""
    lines = list(row_csvs[0] if flag == "--train-csv" else row_csvs[1])
    lines[2] = " " + lines[2][lines[2].index(","):]
    path = tmp_path / "rows.csv"
    path.write_text("".join(lines))
    argv = {"--train-csv": ["train", "--task", "csv", "--output", str(tmp_path / "m.json")],
            "--queries": ["eval", "--model", str(row_csvs[2]), "--task", "language"]}[flag]
    assert run_cli(*argv, flag, str(path)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(path) in err and "row 3" in err, err


def test_empty_corpus_label_is_a_format_error(small_corpus_dir, tmp_path, capsys):
    """A corpus file named ``.txt`` would train a class that no model reader
    accepts; it exits E-FORMAT naming the file."""
    train_dir = tmp_path / "train"
    shutil.copytree(small_corpus_dir[0], train_dir)
    (train_dir / ".txt").write_text((train_dir / "lang00.txt").read_text())
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "64", "--output", str(tmp_path / "m.json")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(train_dir / ".txt") in err, err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("label", [" b", "b ", "a,b", "a\rb", "a\nb"],
                         ids=["leading-space", "trailing-space", "comma", "cr", "lf"])
def test_corpus_label_no_query_row_can_hold_is_a_format_error(label, small_corpus_dir,
                                                              tmp_path, capsys):
    """A corpus file named `` b.txt`` would train a class labelled ' b', which
    no ``label,text`` query row can match, as its label is stripped and ends
    at the first comma; such a label exits E-FORMAT naming the file."""
    train_dir = tmp_path / "train"
    shutil.copytree(small_corpus_dir[0], train_dir)
    corpus = train_dir / f"{label}.txt"
    corpus.write_text((train_dir / "lang00.txt").read_text())
    assert run_cli("train", "--task", "language", "--train-dir", str(train_dir),
                   "--dimension", "64", "--output", str(tmp_path / "m.json")) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(corpus) in err, err
    assert not (tmp_path / "m.json").exists()


def test_model_label_not_a_string_is_a_format_error(csv_model, tmp_path, capsys):
    """A model class labelled 5 exits E-FORMAT naming the class index, not an
    accuracy of 0 on a query labelled 5."""
    doc, test = csv_model
    doc = json.loads(json.dumps(doc))
    doc["classes"][1]["label"] = 5
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    queries = tmp_path / "test.csv"
    queries.write_text(test.read_text().replace("\nc,", "\n5,"))
    assert run_cli("eval", "--model", str(model), "--task", "csv",
                   "--test-csv", str(queries)) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: E-FORMAT:") and str(model) in err and "classes[1]" in err, err


_BITS = st.text("01", min_size=62, max_size=66)


@pytest.mark.parametrize("op", _CSV_OPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bits_csv_fuzz(op, row_csvs, tmp_path_factory, data):
    """A ``label,bits`` training set mutated by ``op`` trains to a model or
    exits a documented E-code, never E-INTERNAL, and never trains with an
    empty label."""
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz_bits.csv"
    blob = _mutate_csv(list(row_csvs[0]), op, data, _FIELD_VALUES | _BITS)
    path.write_bytes(blob)
    _assert_documented_exit(["train", "--task", "csv", "--train-csv", str(path),
                             "--dimension", "64", "--output", str(root / "fuzz_bits.json")],
                            _empty_label_row(blob))


@pytest.mark.parametrize("op", _CSV_OPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_query_csv_fuzz(op, row_csvs, tmp_path_factory, data):
    """A ``label,text`` query set mutated by ``op`` evaluates or exits a
    documented E-code, never E-INTERNAL."""
    path = tmp_path_factory.getbasetemp() / "fuzz_queries.csv"
    path.write_bytes(_mutate_csv(list(row_csvs[1]), op, data))
    _assert_documented_exit(["eval", "--model", str(row_csvs[2]), "--task", "language",
                             "--queries", str(path)])
