"""Plain-Python reference results for the benchmark's workloads.

Nothing here imports ``loiqif``: partitions are lists of atom lists and
distributions are non-negative integer weights over one common total,
so every measure is recomputed independently of the library under test.
Rational measures come out as exact ``Fraction`` values; logarithmic ones
as floats, which the checks compare to within ``LOG_TOLERANCE``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Hashable, Sequence

LOG_TOLERANCE = 1e-6


def kernel_blocks(atoms: Sequence, key: Callable[[object], Hashable]) -> list[list]:
    """Atoms grouped by ``key``, in the library's canonical order: atoms in
    domain order inside a block, blocks ordered by their first atom."""
    groups: dict[Hashable, list] = {}
    for a in atoms:
        groups.setdefault(key(a), []).append(a)
    return list(groups.values())


def summary_text(hist: Counter) -> str:
    """The CLI's one-line rendering of a partition of more than 64 atoms,
    from its histogram of block sizes."""
    blocks = sum(hist.values())
    atoms = sum(s * c for s, c in hist.items())
    shape = ",".join(f"{s}x{c}" for s, c in sorted(hist.items(), reverse=True))
    return f"<{blocks} blocks over {atoms} atoms; sizes {shape}>"


def histogram(blocks: list[list]) -> Counter:
    return Counter(map(len, blocks))


def meet_blocks(atoms: Sequence, *partitions: list[list]) -> list[list]:
    """Components of the union of the partitions' block relations."""
    parent = {a: a for a in atoms}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for blocks in partitions:
        for block in blocks:
            root = find(block[0])
            for a in block[1:]:
                other = find(a)
                if other != root:
                    parent[other] = root
    return kernel_blocks(atoms, find)


def same_partition(x: list[list], y: list[list]) -> bool:
    return sorted(map(sorted, x)) == sorted(map(sorted, y))


def refines(finer: list[list], coarser: list[list]) -> bool:
    """Every block of ``finer`` sits inside one block of ``coarser``."""
    home = {a: i for i, block in enumerate(coarser) for a in block}
    return all(len({home[a] for a in block}) == 1 for block in finer)


# ---------------------------------------------------------------------------
# Measures over integer weights: ``blocks`` holds each block's atom weights,
# ``total`` the sum of all weights, so an atom's mass is weight / total.

def log2_fraction(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


def entropy(blocks: list[list[int]], total: int) -> float:
    masses = [sum(b) for b in blocks if sum(b) > 0]
    if len(masses) <= 1:
        return 0.0
    return math.log2(total) - math.fsum(m * math.log2(m) for m in masses) / total


def guess_prob(blocks: list[list[int]], total: int, n: int) -> Fraction:
    return Fraction(sum(sum(sorted(b, reverse=True)[:n]) for b in blocks), total)


def expected_guesses(blocks: list[list[int]], total: int) -> Fraction:
    return Fraction(sum(i * w for b in blocks
                        for i, w in enumerate(sorted(b, reverse=True), start=1)),
                    total)


def me_leakage(blocks: list[list[int]], total: int) -> float:
    best = max(max(b) for b in blocks)
    return log2_fraction(Fraction(sum(max(b) for b in blocks), best))


def ge_leakage(blocks: list[list[int]], total: int) -> Fraction:
    everything = [w for b in blocks for w in b]
    return expected_guesses([everything], total) - expected_guesses(blocks, total)


def me_prime(blocks: list[list[int]], total: int) -> float:
    best = Fraction(max(sum(b) for b in blocks), total)
    return 0.0 if best == 1 else -log2_fraction(best)


def ge_prime(blocks: list[list[int]], total: int) -> Fraction:
    ranked = sorted((sum(b) for b in blocks), reverse=True)
    return Fraction(sum(i * m for i, m in enumerate(ranked, start=1)), total)


def capacity(blocks: list) -> float:
    return math.log2(len(blocks))


def weights_from_masses(masses: dict) -> tuple[dict, int]:
    """Exact ``Fraction`` masses as integer weights over their common
    denominator."""
    total = math.lcm(*(m.denominator for m in masses.values()))
    return {a: m.numerator * (total // m.denominator) for a, m in masses.items()}, total


def close(reported: str, expected: float) -> bool:
    return abs(float(reported) - expected) <= LOG_TOLERANCE
