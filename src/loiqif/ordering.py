"""Refinement comparison with constructive counterexample distributions.

The order correspondence is stated once, as the measure profile
(G_n, G_1, −NG, H) of a partition under a distribution: refining the
partition never lowers an entry (G_1 orders ME and −NG orders GE, each
differing from its measure by a term of the prior alone).

``compare`` classifies a pair of partitions as equal, strictly related,
or incomparable.  Whenever a refinement direction X ⊑ Y fails, it also
builds an ``OrderWitness``: a distribution and a try count under which
X's profile is strictly larger than Y's in every entry.  The recipe:
pick the first block of Y that is split across blocks of X, put uniform
mass on that block (zero elsewhere) and guess n = block size − 1 times.
X then guesses with certainty while Y can still miss, X's entropy is
strictly higher, and X needs strictly fewer expected guesses.
Witnesses are re-verified before being returned.

``equivalence_audit`` samples seeded random rational distributions (the
constructed witnesses are always included) and checks that the profiles
never contradict the refinement relation: no entry of the coarser
partition's profile exceeds the finer one's, and equal partitions have
equal profiles (exactly, and within ``ENTROPY_TOLERANCE`` for H).  Any
violation it reports would be an implementation bug.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .measures import Distribution, _Ranked, distribution_from_json, distribution_to_json
from .partition import Atom, Domain, Partition, QifError, atom_from_json, leq

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
    blocks of ``x``; None when ``x`` is below ``y`` (``leq``).  The block
    is read off ``y``'s labels, so ``y.blocks`` stays unbuilt."""
    if leq(x, y):
        return None
    meets = Counter(yl for yl, _ in set(zip(y.labels, x.labels)))
    label = min(yl for yl, n in meets.items() if n > 1)
    positions = itertools.compress(itertools.count(), map(label.__eq__, y.labels))
    return tuple(map(y.domain.atoms.__getitem__, positions))


# Names of the profile entries, in order, and the slack each comparison
# of two profiles allows (floating-point entropy only).
_PROFILE_NAMES = ("G_n", "ME", "NG", "H")
_PROFILE_TOLERANCE = (0, 0, 0, ENTROPY_TOLERANCE)


def _profile(p: Partition, mu: Distribution, n: int) -> tuple:
    """(G_n, G_1, −NG, H) of ``p`` under ``mu``, from one block statistic:
    no entry falls when ``p`` is refined."""
    r = _Ranked(p, mu)
    return r.guess_prob(n), r.guess_prob(1), -r.expected_guesses(), r.entropy()


def _ahead(px: tuple, py: tuple) -> bool:
    """Every measure strictly favors the first partition."""
    return all(a > b for a, b in zip(px, py))


def verify_witness(w: OrderWitness, x: Partition, y: Partition) -> bool:
    """Recompute all four measures under the witness distribution and
    confirm the refutation of X ⊑ Y: G_n(X) > G_n(Y), G_1(X) > G_1(Y),
    H(X) > H(Y) and NG(X) < NG(Y).  Returns False on any failure,
    including inconsistent domains."""
    try:
        return _ahead(_profile(x, w.distribution, w.n), _profile(y, w.distribution, w.n))
    except (QifError, ValueError):
        return False


def _witness_refuting(x: Partition, y: Partition) -> OrderWitness | None:
    """Witness distribution under which X ⊑ Y is measurably false; None
    when X ⊑ Y holds."""
    block = find_split_block(x, y)
    if block is None:
        return None
    w = OrderWitness(
        distribution=Distribution.uniform_on(x.domain, block),
        n=len(block) - 1,
        violated_block=block,
    )
    if not verify_witness(w, x, y):
        raise InternalInvariantError(f"constructed witness failed verification: {w}")
    return w


# Relation for (X ⊑ Y refuted, Y ⊑ X refuted).
_RELATION = {
    (False, False): Relation.EQUAL,
    (False, True): Relation.COARSER_THAN,
    (True, False): Relation.FINER_THAN,
    (True, True): Relation.INCOMPARABLE,
}


def compare(x: Partition, y: Partition) -> OrderResult:
    """Classify the pair in the refinement order, with witnesses for
    every failing direction (self-verified before return)."""
    wxy = _witness_refuting(x, y)
    wyx = _witness_refuting(y, x)
    return OrderResult(_RELATION[wxy is not None, wyx is not None], wxy, wyx)


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
    result: OrderResult   # the comparison the audit checked against
    samples: int
    violations: tuple[AuditViolation, ...]
    x_ahead: int   # samples where every measure strictly favors X
    y_ahead: int

    @property
    def relation(self) -> Relation:
        return self.result.relation

    @property
    def ok(self) -> bool:
        return not self.violations


def equivalence_audit(x: Partition, y: Partition, trials: int = 200,
                      seed: int = 0) -> AuditReport:
    """Check the profiles of X and Y against their refinement relation on
    the witnesses plus ``trials`` sampled distributions.

    For related pairs each disagreement is a reported violation.  For
    incomparable pairs both strict orderings are expected (the witnesses
    show them) and are only counted.  Each sample is drawn, measured and
    dropped in turn, so memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    result = compare(x, y)
    rng = random.Random(seed)
    witnesses = [(w.distribution, w.n) for w in (result.witness_xy, result.witness_yx)
                 if w is not None]
    draws = ((Distribution.random(x.domain, rng), rng.randint(1, x.domain.size))
             for _ in range(trials))

    violations: list[AuditViolation] = []
    x_ahead = y_ahead = 0
    for i, (mu, n) in enumerate(itertools.chain(witnesses, draws)):
        px, py = _profile(x, mu, n), _profile(y, mu, n)
        if result.relation is Relation.INCOMPARABLE:
            x_ahead += _ahead(px, py)
            y_ahead += _ahead(py, px)
            continue
        coarser, finer = (py, px) if result.relation is Relation.FINER_THAN else (px, py)
        for k, name in enumerate(_PROFILE_NAMES):
            c, f, tol = coarser[k], finer[k], _PROFILE_TOLERANCE[k]
            if not (abs(c - f) <= tol if result.relation is Relation.EQUAL else c <= f + tol):
                sign = -1 if name == "NG" else 1   # show NG, not the profile's −NG
                violations.append(AuditViolation(
                    i, n, name, f"X {sign * px[k]}, Y {sign * py[k]}"))

    return AuditReport(
        result=result,
        samples=len(witnesses) + trials,
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
        "violated_block": w.violated_block,
    }


def witness_from_json(obj, domain: Domain | None = None) -> OrderWitness:
    """Witness from its JSON form; its distribution is read by
    ``distribution_from_json(obj["distribution"], domain)``."""
    if not isinstance(obj, dict) or not {"distribution", "n", "violated_block"} <= set(obj):
        raise QifError('expected {"distribution": ..., "n": ..., "violated_block": [...]}')
    n, block = obj["n"], obj["violated_block"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise QifError(f'witness "n" must be an integer, got {n!r}')
    if not isinstance(block, (list, tuple)):
        raise QifError(f'witness "violated_block" must be an array, got {block!r}')
    return OrderWitness(
        distribution=distribution_from_json(obj["distribution"], domain),
        n=n,
        violated_block=tuple(atom_from_json(a) for a in block),
    )


def order_result_to_json(r: OrderResult) -> dict:
    return {
        "relation": r.relation.value,
        "witness_xy": witness_to_json(r.witness_xy) if r.witness_xy else None,
        "witness_yx": witness_to_json(r.witness_yx) if r.witness_yx else None,
    }
