"""Shared test utilities: exhaustive partition enumeration and brute-force
oracles kept deliberately independent of the library's own algorithms."""

from __future__ import annotations

import itertools
import math
import random
import reprlib
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from loiqif import Distribution, Domain, Partition, conditional_entropy, kernel, leakage, leq, loi
from loiqif.lang import (
    _SHIFT_LIMIT,
    NON_TERMINATION,
    PASSIVE,
    RUNTIME_ERROR,
    TERMINATED,
    Assign,
    BoolLit,
    ConfigError,
    If,
    IntLit,
    Observable,
    Seq,
    Skip,
    Unary,
    Var,
    While,
    _Fault,
    enumerate_domain,
    low_projection,
    validate_program,
)
from loiqif.measures import MAX_DECIMAL_EXPONENT, InvalidDistributionError
from loiqif.partition import atom_key, domain_from_json

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def set_partitions(items):
    """All partitions of ``items`` as lists of lists (standard recursion:
    place the head into each block of a partition of the tail, or alone)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def all_partitions(domain: Domain) -> list[Partition]:
    return [Partition(domain, blocks) for blocks in set_partitions(domain.atoms)]


def random_partition(domain: Domain, rng) -> Partition:
    labels = {a: rng.randint(0, domain.size - 1) for a in domain.atoms}
    groups: dict[int, list] = {}
    for a, lab in labels.items():
        groups.setdefault(lab, []).append(a)
    return Partition(domain, groups.values())


# ---------------------------------------------------------------------------
# Brute-force oracles

def leq_oracle(x: Partition, y: Partition) -> bool:
    """Refinement by its pairwise definition: every pair related by y is
    related by x."""
    atoms = x.domain.atoms
    for a, b in itertools.combinations(atoms, 2):
        if y.relates(a, b) and not x.relates(a, b):
            return False
    return True


def join_oracle(x: Partition, y: Partition) -> Partition:
    """Join as the intersection of the two equivalence relations."""
    atoms = x.domain.atoms
    blocks = {
        frozenset(b for b in atoms if x.relates(a, b) and y.relates(a, b))
        for a in atoms
    }
    return Partition(x.domain, blocks)


def meet_oracle(x: Partition, y: Partition) -> Partition:
    """Meet as the transitive closure of the union of the two relations
    (Warshall)."""
    atoms = x.domain.atoms
    n = len(atoms)
    rel = [[x.relates(atoms[i], atoms[j]) or y.relates(atoms[i], atoms[j])
            for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    blocks = {frozenset(atoms[j] for j in range(n) if rel[i][j]) for i in range(n)}
    return Partition(x.domain, blocks)


def entropy_oracle(x: Partition, mu: Distribution) -> float:
    """Entropy straight from the definition, in floats."""
    total = 0.0
    for block in x.blocks:
        p = float(mu.block_mass(block))
        if p > 0:
            total -= p * math.log2(p)
    return total


def conditional_entropy_oracle(x: Partition, y: Partition, mu: Distribution) -> float:
    """H(X|Y) as the mu(y)-weighted entropy of X's conditional block
    masses inside each y-block."""
    total = 0.0
    for yb in y.blocks:
        ym = mu.block_mass(yb)
        if ym == 0:
            continue
        inner = 0.0
        for xb in x.blocks:
            joint = sum((mu.mass[a] for a in xb if a in set(yb)), Fraction(0))
            if joint > 0:
                p = float(joint / ym)
                inner -= p * math.log2(p)
        total += float(ym) * inner
    return total


def guess_prob_oracle(x: Partition, mu: Distribution, n: int) -> Fraction:
    """Success probability of the best n-guess strategy: per block, the
    best mass any n-subset can cover."""
    total = Fraction(0)
    for block in x.blocks:
        k = min(n, len(block))
        total += max(
            sum((mu.mass[a] for a in subset), Fraction(0))
            for subset in itertools.combinations(block, k))
    return total


def expected_guesses_oracle(x: Partition, mu: Distribution) -> Fraction:
    """Expected guesses of the best strategy: per block, minimized over
    every guessing order (blocks must be small)."""
    total = Fraction(0)
    for block in x.blocks:
        total += min(
            sum((i * mu.mass[a] for i, a in enumerate(order, start=1)), Fraction(0))
            for order in itertools.permutations(block))
    return total


# ---------------------------------------------------------------------------
# Fraction oracles: the measures recomputed from per-atom ``Fraction``
# masses, block by block, the way the definitions read.

def entropy_lcm_reference(x: Partition, mu: Distribution) -> float:
    """Entropy over the least common denominator d of the block masses,
    with counts c_i: H = log2(d) - sum(c_i log2 c_i)/d.  The library must
    return this float exactly."""
    positive = [m for m in (mu.block_mass(b) for b in x.blocks) if m > 0]
    if len(positive) <= 1:
        return 0.0
    d = math.lcm(*(m.denominator for m in positive))
    counts = [m.numerator * (d // m.denominator) for m in positive]
    clogc = math.fsum(c * math.log2(c) for c in counts)
    return math.log2(d) - clogc / d


def me_leakage_direct(x: Partition, mu: Distribution) -> Fraction:
    """The one-try gain computed the long way round, as the before/after
    difference of -log2(best guess probability): returns the exact ratio
    2^(before-uncertainty − after-uncertainty).

    After observing X, the conditional probability of the best guess in
    block b is max_a mu(a)/mu(b); averaging with weight mu(b) gives the
    posterior one-try success probability.  Zero-mass blocks carry no
    weight.
    """
    prior_best = max(mu.mass.values())
    posterior = Fraction(0)
    for block in x.blocks:
        bm = mu.block_mass(block)
        if bm == 0:
            continue
        cond_best = max(mu.mass[a] / bm for a in block)
        posterior += bm * cond_best
    return posterior / prior_best


def ge_leakage_direct(x: Partition, mu: Distribution) -> Fraction:
    """Guessing-entropy leakage as the before/after difference of
    expected guess counts, with the posterior term computed from the
    conditional distribution inside each positive-mass block."""
    before = Fraction(0)
    for i, m in enumerate(sorted(mu.mass.values(), reverse=True), start=1):
        before += i * m
    after = Fraction(0)
    for block in x.blocks:
        bm = mu.block_mass(block)
        if bm == 0:
            continue
        cond = sorted((mu.mass[a] / bm for a in block), reverse=True)
        after += bm * sum((i * c for i, c in enumerate(cond, start=1)), Fraction(0))
    return before - after


def me_prime_reference(x: Partition, mu: Distribution) -> float:
    """-log2 of the largest block mass, from the reduced Fraction."""
    best = max(mu.block_mass(b) for b in x.blocks)
    if best == 1:
        return 0.0
    return -(math.log2(best.numerator) - math.log2(best.denominator))


def ge_prime_oracle(x: Partition, mu: Distribution) -> Fraction:
    """Expected guesses to name the block, minimized over every order of
    the blocks (partitions must be small)."""
    masses = [mu.block_mass(b) for b in x.blocks]
    return min(
        sum((i * m for i, m in enumerate(order, start=1)), Fraction(0))
        for order in itertools.permutations(masses))


# ---------------------------------------------------------------------------
# Expression reference: the interpreter's operators as one if-chain, the
# way the language description reads.  Faults raise ``_Fault``; reading
# a variable missing from the store raises ``ConfigError``.

def eval_expr_reference(e, store: dict[str, int]) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return 1 if e.value else 0
    if isinstance(e, Var):
        try:
            return store[e.name]
        except KeyError:
            raise ConfigError(f"variable {e.name!r} read before assignment") from None
    if isinstance(e, Unary):
        v = eval_expr_reference(e.operand, store)
        if e.op == "-":
            return -v
        if e.op == "!":
            return 0 if v else 1
        return ~v
    left = eval_expr_reference(e.left, store)
    right = eval_expr_reference(e.right, store)
    op = e.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise _Fault
        return left // right
    if op == "%":
        if right == 0:
            raise _Fault
        return left % right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        if right < 0 or right > _SHIFT_LIMIT:
            raise _Fault
        return left << right
    if op == ">>":
        if right < 0:
            raise _Fault
        return left >> min(right, _SHIFT_LIMIT)
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "&&":
        return 1 if (left != 0 and right != 0) else 0
    if op == "||":
        return 1 if (left != 0 or right != 0) else 0
    raise TypeError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Interpreter reference: one atom at a time, a tree walk over its store
# that counts down the step budget, the way the language description reads.

class _OutOfSteps(Exception):
    pass


@dataclass
class _RunState:
    widths: dict[str, int]
    steps_left: int
    counted_loop: While | None = None
    iterations: int = 0

    def spend(self) -> None:
        self.steps_left -= 1
        if self.steps_left < 0:
            raise _OutOfSteps


def _exec_stmt(s, store: dict[str, int], state: _RunState) -> None:
    if isinstance(s, Skip):
        state.spend()
        return
    if isinstance(s, Assign):
        state.spend()
        v = eval_expr_reference(s.expr, store)
        width = state.widths.get(s.name)
        if width is not None and not (v >= 0 and v.bit_length() <= width):
            # v mod 2^width is v + 2^width, all ``width`` bits of it, when v is
            # negative and narrower than that: past the limit 2^width is never built.
            needed = (width if v < 0 and v.bit_length() < width
                      else (v & ((1 << width) - 1)).bit_length())
            if needed > _SHIFT_LIMIT:
                raise _Fault
            v &= (1 << width) - 1
        store[s.name] = v
        return
    if isinstance(s, Seq):
        for sub in s.stmts:
            _exec_stmt(sub, store, state)
        return
    if isinstance(s, If):
        state.spend()
        branch = s.then_branch if eval_expr_reference(s.cond, store) != 0 else s.else_branch
        _exec_stmt(branch, store, state)
        return
    if isinstance(s, While):
        state.spend()
        while eval_expr_reference(s.cond, store) != 0:
            _exec_stmt(s.body, store, state)
            if s is state.counted_loop:
                state.iterations += 1
            state.spend()
        return
    raise TypeError(f"not a statement: {s!r}")


def run_counting_loop_reference(p, initial, cfg, loop) -> tuple:
    """(Observable, complete body executions of ``loop``, or None when the
    run exhausts its budget) of one run on the store ``initial``."""
    store = dict(initial)
    state = _RunState(widths=cfg.widths(), steps_left=cfg.step_budget, counted_loop=loop)
    try:
        _exec_stmt(p.body, store, state)
    except _OutOfSteps:
        return Observable(NON_TERMINATION), None
    except _Fault:
        return Observable(RUNTIME_ERROR), state.iterations
    return (Observable(TERMINATED, tuple(store.get(v) for v in cfg.observed_vars)),
            state.iterations)


def store_of(cfg, atom) -> dict[str, int]:
    """The initial store of an atom: its values under the names of the
    variables enumerated, and the pinned lows."""
    lows = [n for n, _, _ in cfg.low_vars]
    highs = [n for n, _ in cfg.high_vars]

    def named(names, part):
        return dict(zip(names, (part,) if len(names) == 1 else part))

    if cfg.mode == PASSIVE and lows:
        return {**named(lows, atom[0]), **named(highs, atom[1])}
    return {**named(highs, atom), **{n: v for n, _, v in cfg.low_vars}}


def runs_reference(p, cfg, loop=None) -> list[tuple]:
    """(what the attacker sees, ``loop`` count) of each atom's run, one
    reference run per atom in domain order."""
    validate_program(p, cfg)
    sees_lows = cfg.mode == PASSIVE and bool(cfg.low_vars)
    out = []
    for a in enumerate_domain(cfg).atoms:
        obs, n = run_counting_loop_reference(p, store_of(cfg, a), cfg, loop)
        out.append(((a[0], obs) if sees_lows else obs, n))
    return out


# ---------------------------------------------------------------------------
# Loop decomposition reference: every run on a hand-built store, every
# partition the kernel of an {atom: key} dict, lattice operations by the
# brute-force oracles above.

def loop_analysis_reference(p, cfg, stores: dict, max_iterations=None) -> tuple:
    """(W partitions, W chain, collision, result) of the first top-level
    loop of ``p``, with ``stores`` mapping each atom to its initial store;
    the chain stops at ``max_iterations`` if it has not stabilized by then."""
    domain = Domain(stores)
    loop = next(s for s in p.body.stmts if isinstance(s, While))
    traces = {a: run_counting_loop_reference(p, store, cfg, loop)
              for a, store in stores.items()}
    sees_lows = cfg.mode == PASSIVE and bool(cfg.low_vars)

    def seen(a, what):
        return (a[0], what) if sees_lows else what

    last = max((n for _, n in traces.values() if n is not None), default=0)
    stop = last + 1 if max_iterations is None else max_iterations
    w = [kernel(domain, {a: seen(a, obs) if n == i else seen(a, "elsewhere")
                         for a, (obs, n) in traces.items()})
         for i in range(stop + 1)]
    chain = [w[0]]
    for i in range(1, stop + 1):
        chain.append(join_oracle(chain[-1], w[i]))
        if chain[-1] == chain[-2] and i >= last:
            break
    counts_of = {}
    for a, (obs, n) in traces.items():
        if n is not None:
            counts_of.setdefault(seen(a, obs), set()).add(n)
    collision = kernel(domain, {
        a: seen(a, "unresolved") if n is None
        else seen(a, obs) if len(counts_of[seen(a, obs)]) >= 2 else ("alone", a)
        for a, (obs, n) in traces.items()})
    return tuple(w[:len(chain)]), tuple(chain), collision, meet_oracle(chain[-1], collision)


# ---------------------------------------------------------------------------
# The --dist reader as it was before it read against the program's domain

def distribution_from_json_reference(obj) -> Distribution:
    """Build the file's domain, map every atom's key to it, map the masses
    onto the atoms by key in file order, and let ``Distribution`` read
    them in domain order."""
    if not isinstance(obj, dict) or "domain" not in obj or "mass" not in obj:
        raise InvalidDistributionError('expected {"domain": [...], "mass": {...}}')
    if not isinstance(obj["mass"], dict):
        raise InvalidDistributionError('"mass" must be a JSON object keyed by atom')
    domain = domain_from_json(obj["domain"])
    by_key = {}
    for a in domain.atoms:
        key = atom_key(a)
        if key in by_key:
            raise InvalidDistributionError(
                f"atoms {by_key[key]!r} and {a!r} have the same mass key {key!r}")
        by_key[key] = a
    mass = dict.fromkeys(domain.atoms, 0)
    for key, text in obj["mass"].items():
        if key not in by_key:
            raise InvalidDistributionError(f"mass entry for unknown atom {key!r}")
        if isinstance(text, bool) or not isinstance(text, (str, int, float)):
            raise InvalidDistributionError(
                f"bad mass {reprlib.repr(text)} for atom {key!r}: expected a number or a string")
        mass[by_key[key]] = repr(text) if isinstance(text, float) else text
    return Distribution(domain, mass)


def lists_atoms_reference(values, atoms) -> bool:
    """Whether the JSON array lists ``atoms`` in order, compared atom by
    atom: an int as the same int (not a bool or a float), a tuple as a list
    of the same length whose items match."""
    def same(value, atom) -> bool:
        if type(atom) is tuple:
            return type(value) is list and len(value) == len(atom) and all(map(same, value, atom))
        return type(value) is int and type(atom) is int and value == atom

    return type(values) is list and len(values) == len(atoms) and all(map(same, values, atoms))


def read_distribution_reference(obj, domain: Domain) -> Distribution:
    """The file read over its own domain, then moved onto ``domain`` when
    the two are equal, as ``analyze --dist`` did; a result over another
    domain is a mismatch."""
    mu = distribution_from_json_reference(obj)
    return Distribution.from_weights(domain, mu.weights) if mu.domain == domain else mu


# ---------------------------------------------------------------------------
# Generators

def mass_strings():
    """Text in the alphabet of Fraction's syntax: signs, digits, ``_``,
    ``/``, ``.`` and an exponent of at most MAX_DECIMAL_EXPONENT, some of
    it shaped like a decimal or a ratio, with whitespace around it."""
    digits = st.text("0123456789_", min_size=1, max_size=6)
    loose = st.text("+-0123456789_/. ", max_size=10)
    shaped = st.tuples(st.sampled_from(["", "-", "+"]), digits,
                       st.sampled_from(["", "/", ".", " /"]),
                       st.one_of(st.just(""), digits)).map("".join)
    exponent = st.one_of(
        st.just(""),
        st.tuples(st.sampled_from("eE"), st.sampled_from(["", "-", "+"]),
                  st.integers(0, MAX_DECIMAL_EXPONENT).map(lambda n: f"{n:_}"))
        .map("".join))
    space = st.sampled_from(["", " ", "\t", "\n "])
    return st.tuples(space, st.one_of(loose, shaped), exponent, space).map("".join)


# ---------------------------------------------------------------------------
# The lattice fact ``leakage`` and ``analyze`` rest on

def check_partition_refines_lows(p, cfg, seed: int) -> None:
    """The program's partition X refines the low projection L, so the
    leakage H(X) − H(L) is H(X | L) = H(X ⊔ L) − H(L) to the last bit,
    under the uniform prior and a seeded random one.  A program that reads
    a variable before assigning it has no partition and checks nothing."""
    try:
        d, x = loi(p, cfg)
    except ConfigError:
        return
    low = low_projection(d, cfg)
    assert leq(low, x)
    for mu in (Distribution.uniform(d), Distribution.random(d, random.Random(seed))):
        assert leakage(p, cfg, mu) == conditional_entropy(x, low, mu)
