"""Deterministic synthetic benchmark data.

The language benchmark draws text from per-language first-order Markov
chains. Languages come in pairs: every pair shares a common parent chain,
so pair members are mutually confusable while different pairs stay far
apart, which yields a realistic mix of easy and borderline queries.
Query lengths are log-uniform, so short, hard queries are well
represented. The benchmark is fully determined by its seed, which keeps
every experiment replayable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .encoders import ALPHABET, Task

QUERY_CHARS = (20, 120)  # bounds of the log-uniform query lengths
BASE_DIVERGENCE = 2.0  # log-normal spread of each pair's parent chain around the base
PAIR_DIVERGENCE = 0.9  # log-normal spread of each language around its pair's parent


def _paired_markov_chains(num_languages, rng):
    """Cumulative transition matrices; languages 2i and 2i+1 share a parent."""
    k = len(ALPHABET)
    base = rng.dirichlet(np.full(k, 0.3), size=k)
    chains = []
    for _ in range((num_languages + 1) // 2):
        parent = base * np.exp(BASE_DIVERGENCE * rng.standard_normal((k, k)))
        parent /= parent.sum(axis=1, keepdims=True)
        for _ in range(2):
            t = parent * np.exp(PAIR_DIVERGENCE * rng.standard_normal((k, k)))
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
    seed: int = 0,
) -> LanguageBenchmark:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1a]))
    chains = _paired_markov_chains(num_languages, rng)
    labels = [f"lang{i:02d}" for i in range(num_languages)]
    train = {
        label: _sample_text(chains[i], train_chars, rng)
        for i, label in enumerate(labels)
    }
    queries = []
    lo, hi = QUERY_CHARS
    for i, label in enumerate(labels):
        lengths = np.exp(
            rng.uniform(np.log(lo), np.log(hi), size=queries_per_language)
        ).astype(int)
        for length in lengths:
            queries.append((_sample_text(chains[i], int(length), rng), label))
    return LanguageBenchmark(train_texts=train, queries=queries, seed=seed)


def encode_language_benchmark(bench: LanguageBenchmark, dimension: int):
    """Train an associative memory with the ``language`` task's defaults and
    encode all queries with the training's tie stream.

    Returns (AssociativeMemory, packed query matrix, query labels).
    """
    task = Task("language")
    memory = task.train(list(bench.train_texts.values()), list(bench.train_texts), dimension)
    queries = task.encode([text for text, _ in bench.queries], dimension)
    return memory, queries, [label for _, label in bench.queries]
