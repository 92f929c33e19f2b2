"""Shared fixtures: synthetic benchmarks encoded once per session."""

import tracemalloc

import numpy as np
import pytest
from criterion_helpers import make_image_benchmark

from hdtcam import explorer, synth
from hdtcam.encoders import Task

LANGUAGE_SEED = 2
DIMENSION = 10000


@pytest.fixture(scope="session")
def language_bench():
    return synth.make_language_benchmark(seed=LANGUAGE_SEED)


@pytest.fixture(scope="session")
def language_setup(language_bench):
    """(memory, queries, labels, ideal accuracy) at the full dimension."""
    memory, queries, labels = synth.encode_language_benchmark(language_bench, DIMENSION)
    baseline = explorer.ideal_accuracy(memory, queries, labels)
    return memory, queries, labels, baseline


@pytest.fixture(scope="session")
def language_setup_2000(language_bench):
    memory, queries, labels = synth.encode_language_benchmark(language_bench, 2000)
    baseline = explorer.ideal_accuracy(memory, queries, labels)
    return memory, queries, labels, baseline


@pytest.fixture(scope="session")
def image_setup():
    train_images, train_labels, test_images, test_labels = make_image_benchmark(seed=0)
    task = Task("mnist")
    memory = task.train(train_images, [str(int(c)) for c in train_labels], DIMENSION)
    queries = task.encode(test_images, DIMENSION)
    labels = [str(int(c)) for c in test_labels]
    baseline = explorer.ideal_accuracy(memory, queries, labels)
    return memory, queries, labels, baseline


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    """On-disk language corpus + query CSV for exercising the CLI."""
    root = tmp_path_factory.mktemp("corpus")
    bench = synth.make_language_benchmark(
        num_languages=4, train_chars=20000, queries_per_language=25, seed=1
    )
    train_dir = root / "train"
    train_dir.mkdir()
    for label, text in bench.train_texts.items():
        (train_dir / f"{label}.txt").write_text(text)
    queries_csv = root / "queries.csv"
    with open(queries_csv, "w") as f:
        f.write("label,text\n")
        for text, label in bench.queries:
            f.write(f"{label},{text}\n")
    return train_dir, queries_csv


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def traced_peak():
    """Run ``fn(*args)``; return its result and the peak, in bytes, of the memory
    allocated while it ran (numpy reports its buffers to ``tracemalloc``)."""
    def run(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    return run
