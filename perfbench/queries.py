"""Seeded query lists for the ``query-mix`` workload.

A session is a run of topics.  Each topic draws its own pool of distinct
permutations from S_7 and S_8 (each drawn permutation moves its last value,
so it is genuinely of that size), then draws each query's permutation from
that pool with Zipf weights 1/rank^s and its kind with fixed shares.  Under
Zipf weights the few top-ranked permutations take a large share of the
queries, and the uncached parts of a ``check`` (pattern test, bad-pair
search) repeat on every ask, so one topic's cost hangs on its top ranks;
several topics per session average that out.  The same seed and session
number always give the same list.
"""

from __future__ import annotations

import random

TOPICS = 8
TOPIC_POOL = 250
TOPIC_QUERIES = 250
ZIPF_EXPONENT = 1.0
SIZES = (7, 8)
KIND_SHARES = (("check", 0.40), ("schubert", 0.25), ("pipedreams", 0.20), ("forest", 0.15))

Query = tuple[str, tuple[int, ...]]


def make_pool(rng: random.Random, size: int, sizes=SIZES) -> list[tuple[int, ...]]:
    pool: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(pool) < size:
        n = rng.choice(sizes)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        w = tuple(w)
        if w[-1] != n and w not in seen:
            seen.add(w)
            pool.append(w)
    return pool


def make_queries(
    seed: int,
    session: int = 0,
    topics: int = TOPICS,
    pool_size: int = TOPIC_POOL,
    count: int = TOPIC_QUERIES,
    sizes=SIZES,
) -> list[Query]:
    """``topics`` blocks of ``count`` queries, each over its own pool."""
    rng = random.Random(f"query-mix:{seed}:{session}")
    names = [k for k, _ in KIND_SHARES]
    shares = [s for _, s in KIND_SHARES]
    zipf = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, pool_size + 1)]
    queries: list[Query] = []
    for _ in range(topics):
        pool = make_pool(rng, pool_size, sizes)
        picks = rng.choices(pool, weights=zipf, k=count)
        kinds = rng.choices(names, weights=shares, k=count)
        queries += zip(kinds, picks)
    return queries
