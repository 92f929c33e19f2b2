"""Deterministic synthetic benchmark data.

The language benchmark draws text from per-language first-order Markov
chains. Languages come in pairs: every pair shares a common parent chain,
so pair members are mutually confusable while different pairs stay far
apart, which yields a realistic mix of easy and borderline queries.
Query lengths are log-uniform, so short, hard queries are well
represented. The image benchmark perturbs per-class pixel prototypes with
flip noise in MNIST geometry. Both are fully determined by their seeds,
which keeps every experiment replayable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .encoders import ALPHABET, Task


def _paired_markov_chains(num_languages, base_divergence, pair_divergence, rng):
    """Cumulative transition matrices; languages 2i and 2i+1 share a parent."""
    k = len(ALPHABET)
    base = rng.dirichlet(np.full(k, 0.3), size=k)
    chains = []
    for _ in range((num_languages + 1) // 2):
        parent = base * np.exp(base_divergence * rng.standard_normal((k, k)))
        parent /= parent.sum(axis=1, keepdims=True)
        for _ in range(2):
            t = parent * np.exp(pair_divergence * rng.standard_normal((k, k)))
            t /= t.sum(axis=1, keepdims=True)
            chains.append(np.cumsum(t, axis=1))
    return chains[:num_languages]


def _sample_text(cum_chain: np.ndarray, length: int, rng: np.random.Generator) -> str:
    u = rng.random(length).tolist()
    rows, last = cum_chain.tolist(), cum_chain.shape[0] - 1
    state = rng.integers(0, cum_chain.shape[0])
    out = []
    for x in u:
        state = min(bisect_left(rows[state], x), last)
        out.append(ALPHABET[state])
    return "".join(out)


@dataclass
class LanguageBenchmark:
    train_texts: dict  # label -> str
    queries: list      # list of (text, label)
    seed: int


def make_language_benchmark(
    num_languages: int = 8,
    train_chars: int = 100_000,
    queries_per_language: int = 200,
    query_chars: tuple = (20, 120),
    base_divergence: float = 2.0,
    pair_divergence: float = 0.9,
    seed: int = 0,
) -> LanguageBenchmark:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1a]))
    chains = _paired_markov_chains(num_languages, base_divergence, pair_divergence, rng)
    labels = [f"lang{i:02d}" for i in range(num_languages)]
    train = {
        label: _sample_text(chains[i], train_chars, rng)
        for i, label in enumerate(labels)
    }
    queries = []
    lo, hi = query_chars
    for i, label in enumerate(labels):
        lengths = np.exp(
            rng.uniform(np.log(lo), np.log(hi), size=queries_per_language)
        ).astype(int)
        for length in lengths:
            queries.append((_sample_text(chains[i], int(length), rng), label))
    return LanguageBenchmark(train_texts=train, queries=queries, seed=seed)


def encode_language_benchmark(
    bench: LanguageBenchmark,
    dimension: int,
    ngram: int | None = None,
    item_seed: int | None = None,
    tie_seed: int | None = None,
):
    """Train an associative memory and encode all queries with the training's
    tie stream; unset parameters take the ``language`` task defaults.

    Returns (AssociativeMemory, query matrix, query labels).
    """
    task = Task("language", item_seed, tie_seed, ngram=ngram)
    memory = task.train(bench.train_texts, dimension)
    queries = task.encode([text for text, _ in bench.queries], dimension)
    return memory, queries, [label for _, label in bench.queries]


@dataclass
class ImageBenchmark:
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    seed: int


def make_image_benchmark(
    num_classes: int = 10,
    train_per_class: int = 500,
    test_per_class: int = 100,
    side: int = 28,
    white_fraction: float = 0.25,
    flip_prob: float = 0.06,
    seed: int = 0,
) -> ImageBenchmark:
    """Grayscale benchmark in MNIST geometry: noisy copies of class prototypes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1d]))
    protos = rng.random((num_classes, side, side)) < white_fraction

    def draw(per_class):
        images = np.empty((num_classes * per_class, side, side), dtype=np.uint8)
        labels = np.empty(num_classes * per_class, dtype=np.uint8)
        i = 0
        for c in range(num_classes):
            flips = rng.random((per_class, side, side)) < flip_prob
            bits = np.logical_xor(protos[c][None, :, :], flips)
            images[i:i + per_class] = np.where(bits, 255, 0).astype(np.uint8)
            labels[i:i + per_class] = c
            i += per_class
        return images, labels

    train_images, train_labels = draw(train_per_class)
    test_images, test_labels = draw(test_per_class)
    return ImageBenchmark(train_images, train_labels, test_images, test_labels, seed)


def encode_image_benchmark(
    bench: ImageBenchmark,
    dimension: int,
    threshold: int | None = None,
    item_seed: int | None = None,
    tie_seed: int | None = None,
):
    """Train an associative memory on the image benchmark and encode test
    queries; unset parameters take the ``mnist`` task defaults."""
    task = Task("mnist", item_seed, tie_seed, threshold=threshold)
    memory = task.train((bench.train_images, bench.train_labels), dimension)
    queries = task.encode(bench.test_images, dimension)
    return memory, queries, [str(int(c)) for c in bench.test_labels]
