"""Planted determinism hazards in a solver-path module (fixture)."""

import random

import numpy as np


def tie_break(nodes, score):
    best = None
    for v in {n for n in nodes}:  # expect[determinism]  (set comprehension iter)
        if best is None or score[v] > score[best]:
            best = v
    picks = [score[v] for v in set(nodes)]  # expect[determinism]  (set() iter)
    seed = next(iter(frozenset(nodes)))  # expect[determinism]  (arbitrary pick)
    noise = random.random()  # expect[determinism]  (global RNG)
    jitter = np.random.rand(3)  # expect[determinism]  (numpy global RNG)
    rng = np.random.default_rng()  # expect[determinism]  (unseeded generator)
    total = 0.0
    for v in nodes & {best}:  # repro: lint-ok[determinism] -- order-free sum
        total += score[v]
    return best, picks, seed, noise, jitter, rng, total
