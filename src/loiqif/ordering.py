"""Refinement comparison with constructive counterexample distributions.

``compare`` classifies a pair of partitions as equal, strictly related,
or incomparable.  Whenever a refinement direction fails, it also builds
an ``OrderWitness``: a distribution and a try count under which every
measure strictly disagrees with that direction.  The recipe: pick the
first block of the would-be finer partition that is split across blocks
of the other one, put uniform mass on that block (zero elsewhere) and
guess n = block size − 1 times.  Under that distribution the splitting
partition guesses with certainty while the split one can still miss, its
entropy is strictly higher, and it needs strictly fewer expected
guesses.  Witnesses are re-verified before being returned.

``equivalence_audit`` samples seeded random rational distributions (the
constructed witnesses are always included) and checks that the empirical
order of H, G_n, NG, ME and GE between the two partitions never
contradicts the refinement relation; any violation it reports would be
an implementation bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .measures import (
    Distribution,
    distribution_from_json,
    distribution_to_json,
    entropy,
    expected_guesses,
    guess_prob,
)
from .partition import (
    Atom,
    DomainMismatchError,
    Partition,
    QifError,
    atom_from_json,
    atom_to_json,
    leq,
)

ENTROPY_TOLERANCE = 1e-9


class InternalInvariantError(QifError):
    """A constructed witness failed its own verification."""


class Relation(Enum):
    EQUAL = "equal"
    COARSER_THAN = "coarser-than"   # X strictly below Y: Y refines X
    FINER_THAN = "finer-than"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderWitness:
    """Counterexample to one refinement direction.

    ``distribution`` is uniform over ``violated_block`` and zero
    elsewhere; ``n`` is one less than the block size.
    """

    distribution: Distribution
    n: int
    violated_block: tuple[Atom, ...]


@dataclass(frozen=True)
class OrderResult:
    """Outcome of ``compare``.

    ``witness_xy`` refutes X ⊑ Y and is present exactly when that
    direction fails; ``witness_yx`` likewise for Y ⊑ X.
    """

    relation: Relation
    witness_xy: OrderWitness | None = None
    witness_yx: OrderWitness | None = None


def find_split_block(x: Partition, y: Partition) -> tuple[Atom, ...] | None:
    """First block of ``y`` (canonical order) that meets two or more
    blocks of ``x``; None when ``x`` is below ``y`` (no such block)."""
    if x.domain != y.domain:
        raise DomainMismatchError("partitions live on different domains")
    home = [-1] * y.n_blocks      # x-label of each y-block's first atom
    split: set[int] = set()
    for yl, xl in zip(y.labels, x.labels):
        if home[yl] < 0:
            home[yl] = xl
        elif home[yl] != xl:
            split.add(yl)
    if not split:
        return None
    first = min(split)
    return tuple(a for a, yl in zip(y.domain.atoms, y.labels) if yl == first)


def verify_witness(w: OrderWitness, x: Partition, y: Partition) -> bool:
    """Recompute all four measures under the witness distribution and
    confirm the refutation of X ⊑ Y: G_n(X) > G_n(Y), G_1(X) > G_1(Y),
    H(X) > H(Y) and NG(X) < NG(Y).  Returns False on any failure,
    including inconsistent domains."""
    try:
        mu = w.distribution
        if mu.domain != x.domain or mu.domain != y.domain:
            return False
        if guess_prob(x, mu, w.n) <= guess_prob(y, mu, w.n):
            return False
        if guess_prob(x, mu, 1) <= guess_prob(y, mu, 1):
            return False
        if entropy(x, mu) <= entropy(y, mu):
            return False
        if expected_guesses(x, mu) >= expected_guesses(y, mu):
            return False
        return True
    except (QifError, ValueError):
        return False


def _witness_refuting(x: Partition, y: Partition) -> OrderWitness:
    """Witness distribution under which X ⊑ Y is measurably false."""
    block = find_split_block(x, y)
    if block is None:
        raise InternalInvariantError("no split block: the direction holds")
    w = OrderWitness(
        distribution=Distribution.uniform_on(x.domain, block),
        n=len(block) - 1,
        violated_block=block,
    )
    if not verify_witness(w, x, y):
        raise InternalInvariantError(f"constructed witness failed verification: {w}")
    return w


def compare(x: Partition, y: Partition) -> OrderResult:
    """Classify the pair in the refinement order, with witnesses for
    every failing direction (self-verified before return)."""
    below = leq(x, y)
    above = leq(y, x)
    if below and above:
        return OrderResult(Relation.EQUAL)
    if below:
        return OrderResult(Relation.COARSER_THAN, witness_yx=_witness_refuting(y, x))
    if above:
        return OrderResult(Relation.FINER_THAN, witness_xy=_witness_refuting(x, y))
    return OrderResult(
        Relation.INCOMPARABLE,
        witness_xy=_witness_refuting(x, y),
        witness_yx=_witness_refuting(y, x),
    )


# ---------------------------------------------------------------------------
# Randomized consistency audit

@dataclass(frozen=True)
class AuditViolation:
    sample: int
    n: int
    measure: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    relation: Relation
    samples: int
    violations: tuple[AuditViolation, ...]
    x_ahead: int   # samples where every measure strictly favors X
    y_ahead: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_measures(p: Partition, mu: Distribution, n: int):
    return (guess_prob(p, mu, n), guess_prob(p, mu, 1),
            expected_guesses(p, mu), entropy(p, mu))


def equivalence_audit(x: Partition, y: Partition, trials: int = 200,
                      seed: int = 0) -> AuditReport:
    """Check measure orders against the refinement relation on sampled
    distributions.

    For related pairs every sample must order H, G_n, NG, ME and GE the
    same way as the relation (exact comparisons for the rational
    measures, 1e-9 for entropy) — violations are reported.  For
    incomparable pairs the witnesses are part of the sample set, so both
    strict orderings are observed; per-sample disagreement is expected
    and only counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    result = compare(x, y)
    rng = random.Random(seed)
    samples: list[tuple[Distribution, int]] = []
    for w in (result.witness_xy, result.witness_yx):
        if w is not None:
            samples.append((w.distribution, w.n))
    samples.extend(
        (Distribution.random(x.domain, rng), rng.randint(1, x.domain.size))
        for _ in range(trials))

    violations: list[AuditViolation] = []
    x_ahead = y_ahead = 0

    def expect(i: int, n: int, name: str, ordered: bool, detail: str) -> None:
        if not ordered:
            violations.append(AuditViolation(i, n, name, detail))

    for i, (mu, n) in enumerate(samples):
        gx_n, gx_1, ng_x, h_x = _sample_measures(x, mu, n)
        gy_n, gy_1, ng_y, h_y = _sample_measures(y, mu, n)
        # ME order is the order of G_1 (shared prior term); GE order is
        # the reversed order of NG (shared prior term).
        if result.relation is Relation.EQUAL:
            expect(i, n, "G_n", gx_n == gy_n, f"{gx_n} != {gy_n}")
            expect(i, n, "NG", ng_x == ng_y, f"{ng_x} != {ng_y}")
            expect(i, n, "ME", gx_1 == gy_1, f"{gx_1} != {gy_1}")
            expect(i, n, "H", abs(h_x - h_y) <= ENTROPY_TOLERANCE, f"{h_x} vs {h_y}")
        elif result.relation is Relation.COARSER_THAN:
            expect(i, n, "G_n", gx_n <= gy_n, f"{gx_n} > {gy_n}")
            expect(i, n, "NG", ng_y <= ng_x, f"{ng_y} > {ng_x}")
            expect(i, n, "ME", gx_1 <= gy_1, f"{gx_1} > {gy_1}")
            expect(i, n, "H", h_x <= h_y + ENTROPY_TOLERANCE, f"{h_x} > {h_y}")
        elif result.relation is Relation.FINER_THAN:
            expect(i, n, "G_n", gy_n <= gx_n, f"{gy_n} > {gx_n}")
            expect(i, n, "NG", ng_x <= ng_y, f"{ng_x} > {ng_y}")
            expect(i, n, "ME", gy_1 <= gx_1, f"{gy_1} > {gx_1}")
            expect(i, n, "H", h_y <= h_x + ENTROPY_TOLERANCE, f"{h_y} > {h_x}")
        else:
            if gx_n > gy_n and gx_1 > gy_1 and ng_x < ng_y and h_x > h_y:
                x_ahead += 1
            elif gy_n > gx_n and gy_1 > gx_1 and ng_y < ng_x and h_y > h_x:
                y_ahead += 1

    return AuditReport(
        relation=result.relation,
        samples=len(samples),
        violations=tuple(violations),
        x_ahead=x_ahead,
        y_ahead=y_ahead,
    )


# ---------------------------------------------------------------------------
# JSON forms

def witness_to_json(w: OrderWitness) -> dict:
    return {
        "distribution": distribution_to_json(w.distribution),
        "n": w.n,
        "violated_block": [atom_to_json(a) for a in w.violated_block],
    }


def witness_from_json(obj) -> OrderWitness:
    if not isinstance(obj, dict) or not {"distribution", "n", "violated_block"} <= set(obj):
        raise QifError('expected {"distribution": ..., "n": ..., "violated_block": [...]}')
    n, block = obj["n"], obj["violated_block"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise QifError(f'witness "n" must be an integer, got {n!r}')
    if not isinstance(block, list):
        raise QifError(f'witness "violated_block" must be an array, got {block!r}')
    return OrderWitness(
        distribution=distribution_from_json(obj["distribution"]),
        n=n,
        violated_block=tuple(atom_from_json(a) for a in block),
    )


def order_result_to_json(r: OrderResult) -> dict:
    return {
        "relation": r.relation.value,
        "witness_xy": witness_to_json(r.witness_xy) if r.witness_xy else None,
        "witness_yx": witness_to_json(r.witness_yx) if r.witness_yx else None,
    }
