"""Program-level analyses on top of partitions.

* ``multi_run`` — the combined knowledge of several runs is the join of
  their partitions.
* ``leaks_same_information`` — a batch of runs carries one fixed piece
  of information iff no two of them are incomparable.
* ``self_compose`` — builds one program whose partition is the join of
  two programs' partitions, by sequencing variable-disjoint copies fed
  from a shared prelude.
* ``loop_analyze`` — reconstructs a loop's partition from per-iteration
  observation kernels joined into a chain, cut down by the collision
  partition that merges inputs indistinguishable because they produce
  the same output at different iteration counts.
* ``program_capacity`` — channel capacity of a program's partition.
* ``leakage`` — the entropy of a program's partition left to an attacker
  who already sees the low inputs, whose own entropy is ``lows_entropy``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial, reduce

from .lang import (
    _SHIFT_LIMIT,
    PASSIVE,
    Assign,
    AttackerConfig,
    Binary,
    IntLit,
    Program,
    Seq,
    Stmt,
    Var,
    While,
    assigned_vars,
    loi,
    low_projection,
    map_nodes,
    read_vars,
    runs,
    validate_program,
)
from .measures import Distribution, channel_capacity, entropy
from .partition import Domain, DomainMismatchError, Partition, QifError, join, leq, meet, relabel


class AnalysisError(QifError):
    """The analysis preconditions do not hold for this input."""


def multi_run(partitions: Sequence[Partition]) -> Partition:
    """Join of the partitions of several runs: what all of them together
    reveal."""
    if not partitions:
        raise AnalysisError("multi_run needs at least one partition")
    return reduce(join, partitions)


def leaks_same_information(runs: Sequence[Partition]) -> tuple[bool, tuple[int, int] | None]:
    """True when the runs form a chain (each pair comparable), i.e. the
    program keeps revealing the same information; otherwise False with
    the first pair (i, j) whose join sits strictly above both."""
    if len(runs) < 2:
        raise AnalysisError("need at least two runs to compare")
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            if not leq(runs[i], runs[j]) and not leq(runs[j], runs[i]):
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# Self-composition

def self_compose(p1: Program, p2: Program, cfg: AttackerConfig
                 ) -> tuple[Program, AttackerConfig]:
    """Sequence two variable-disjoint copies of the programs.

    Each copy works on its own suffixed variables; a prelude copies every
    configured variable into the copy's alias, so the copies share inputs
    but never interfere.  The copies are made with ``lang.map_nodes``: a
    ``Var`` or ``Assign`` gets the suffix, and an assignment to a declared
    variable is masked to its width, since the alias carries no width
    from the configuration; such a variable wider than 2^20 bits is an
    ``AnalysisError``.  Returns the composed program and the matching
    configuration (same secrets, both copies' outputs observed).  For
    runs that terminate within budget, the composed program's partition
    is exactly the join of the two programs' partitions.
    """
    validate_program(p1, cfg)
    validate_program(p2, cfg)
    widths = cfg.widths()
    vocabulary = (set(widths) | read_vars(p1) | assigned_vars(p1)
                  | read_vars(p2) | assigned_vars(p2))
    suffixes = ("__1", "__2")
    for name in vocabulary:
        for suffix in suffixes:
            if name + suffix in vocabulary:
                raise AnalysisError(
                    f"renaming collision: {name + suffix!r} already in use")

    declared_order = list(widths)

    def renamed(node, suffix: str):
        if isinstance(node, Var):
            return Var(node.name + suffix)
        if isinstance(node, Assign):
            expr = node.expr
            if node.name in widths:
                if widths[node.name] > _SHIFT_LIMIT:
                    raise AnalysisError(
                        f"variable {node.name!r} is {widths[node.name]} bits wide; a "
                        f"composed copy masks at most {_SHIFT_LIMIT} bits")
                expr = Binary("&", expr, IntLit((1 << widths[node.name]) - 1))
            return Assign(node.name + suffix, expr)
        return node

    stmts: list[Stmt] = []
    for program, suffix in zip((p1, p2), suffixes):
        stmts.extend(Assign(n + suffix, Var(n)) for n in declared_order)
        body = map_nodes(program.body, partial(renamed, suffix=suffix))
        stmts.extend(body.stmts) if isinstance(body, Seq) else stmts.append(body)
    composed = Program(Seq(tuple(stmts)))

    observed = tuple(o + suffixes[0] for o in cfg.observed_vars) + \
        tuple(o + suffixes[1] for o in cfg.observed_vars)
    composed_cfg = AttackerConfig(
        high_vars=cfg.high_vars,
        low_vars=cfg.low_vars,
        observed_vars=observed,
        mode=cfg.mode,
        step_budget=2 * cfg.step_budget + 2 * len(declared_order) + 2,
        enumeration_cap=cfg.enumeration_cap,
    )
    return composed, composed_cfg


# ---------------------------------------------------------------------------
# Loop analysis

class StepPartitions(Sequence):
    """One partition per step of a loop's chain, kept as its splits.

    Step j keys each atom that finishes after exactly j iterations
    (``positions[j]``) by ``j * n_views + views[position]``, computed on
    access from the atom's view number; every other atom keeps its base
    key.  Item i of a joined sequence applies steps 0 .. i, of a plain one
    step i alone; either way the ``Partition`` is one ``relabel`` of the
    whole domain, built on access and not kept, so access costs O(atoms).
    ``shape(i)`` is item i's block count and block-size histogram, stored
    when the sequence was made, so reading it builds no partition.
    """

    __slots__ = ("domain", "_base", "_positions", "_views", "_n_views", "_joined", "_shapes")

    def __init__(self, domain: Domain, base: list, positions: Sequence[list[int]],
                 views: Sequence[int], n_views: int, joined: bool,
                 shapes: Sequence[tuple[int, tuple[tuple[int, int], ...]]]):
        self.domain = domain
        self._base = base
        self._positions = positions
        self._views = views
        self._n_views = n_views
        self._joined = joined
        self._shapes = shapes

    def __len__(self) -> int:
        return len(self._shapes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        keys, views = self._base[:], self._views
        for j in range(i + 1) if self._joined else (i,):
            step = j * self._n_views
            for position in self._positions[j]:
                keys[position] = step + views[position]
        return relabel(self.domain, keys)

    def shape(self, i: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Item i's block count and its (block size, number of blocks)
        pairs, largest size first."""
        return self._shapes[i]


@dataclass(frozen=True)
class LoopAnalysis:
    """Per-iteration decomposition of a loop's partition.

    ``w_partitions[i]`` distinguishes inputs by their output when the
    loop finishes in exactly i iterations (everything else pooled);
    ``w_chain[i]`` is the join of the first i+1 of those.  Both are
    read-only ``StepPartitions`` sequences: they hold the chain as the
    atoms each step moves, build a ``Partition`` on access at O(atoms)
    apiece, and give each item's block count and size histogram without
    building it.  ``collision`` merges inputs whose runs produce the same
    output at two or more different iteration counts (inputs that never
    resolve form one block).  ``result`` is the meet of the final chain
    element with the collision partition and equals the program's
    partition whenever the chain stabilized.
    """

    domain: Domain
    w_partitions: StepPartitions
    w_chain: StepPartitions
    collision: Partition
    result: Partition
    iterations_analyzed: int
    stabilized: bool


def _find_top_level_loop(s: Stmt) -> While | None:
    """The first while loop in ``s``, looking into sequences only."""
    if isinstance(s, While):
        return s
    subs = s.stmts if isinstance(s, Seq) else ()
    return next(filter(None, map(_find_top_level_loop, subs)), None)


def _shape(sizes: Counter) -> tuple[int, tuple[tuple[int, int], ...]]:
    return sum(sizes.values()), tuple(sorted(sizes.items(), reverse=True))


def _move(sizes: Counter, old: int, new: int) -> None:
    """One block of ``sizes`` shrinks from ``old`` atoms to ``new`` (0: gone)."""
    sizes[old] -= 1
    if not sizes[old]:
        del sizes[old]
    if new:
        sizes[new] += 1


def loop_analyze(p: Program, cfg: AttackerConfig,
                 max_iterations: int | None = None) -> LoopAnalysis:
    """Analyze the first top-level while loop of the program.

    ``max_iterations`` caps the chain length.  The default is one past the
    largest iteration count any run reached: no run finishes later, so by
    then the chain has stopped growing and always stabilizes.  Partitions
    are kernels of the keys ``runs`` gives, so a passive attacker also
    tells apart runs with different lows.  Each step costs the atoms that
    finish at its iteration count; of the step partitions, only the last
    chain element is built here, for ``result``.
    """
    loop = _find_top_level_loop(p.body)
    if loop is None:
        raise AnalysisError("no top-level while loop to analyze")
    if max_iterations is not None and max_iterations < 1:
        raise AnalysisError("max_iterations must be >= 1")

    domain, chunks = runs(p, cfg, loop)
    counts: list[int | None] = []

    def keys():
        for chunk_keys, chunk_counts in chunks:
            counts.extend(chunk_counts)
            yield from chunk_keys

    # Number the views 0, 1, ... as they come and the low parts -1, -2, ...
    # once: every key below is one of these integers, so no view meets a low part.
    numbered = relabel(domain, keys())
    views, n_views = numbered.labels, numbered.n_blocks
    lows = low_projection(domain, cfg).labels
    elsewhere = [~low for low in lows]
    resolved_by = max((n for n in counts if n is not None), default=0)
    if max_iterations is None:
        max_iterations = resolved_by + 1
    # buckets[i]: the positions of the atoms done after exactly i iterations.
    # The chain stops at resolved_by + 1 at the latest, whose bucket is empty.
    buckets: list[list[int]] = [[] for _ in range(resolved_by + 2)]
    for position, n in enumerate(counts):
        if n is not None:
            buckets[n].append(position)

    # A step partition keys an atom by its low part, or by (step, view) as
    # the integer step * n_views + view once it applies the atom's step:
    # W_<=i, the join of W_0 .. W_i, applies steps 0 .. i, and W_i step i
    # alone.  A view fixes the low part, so two atoms every W_j keys alike
    # share both.  Step i takes bucket i's atoms out of their low parts'
    # blocks and groups them by view, so both shapes follow from the
    # bucket's view groups and the atoms each low part has left.
    low_size = Counter(lows)
    left = dict(low_size)
    lows_shape = Counter(low_size.values())
    chain_sizes = lows_shape.copy()
    w_shapes, chain_shapes = [], []
    stabilized = False
    for n in range(max_iterations + 1):
        bucket = buckets[n]
        groups = Counter(map(views.__getitem__, bucket)).values()
        taken = Counter(lows[position] for position in bucket)
        w_sizes = lows_shape + Counter(groups)
        chain_sizes.update(groups)
        for low, k in taken.items():
            _move(w_sizes, low_size[low], low_size[low] - k)
            _move(chain_sizes, left[low], left[low] - k)
            left[low] -= k
        w_shapes.append(_shape(w_sizes))
        chain_shapes.append(_shape(chain_sizes))
        # Each join refines the one before, so the chain has stopped
        # growing when its block count has.
        if n and chain_shapes[-1][0] == chain_shapes[-2][0] and n >= resolved_by:
            stabilized = True
            break

    w_parts = StepPartitions(domain, elsewhere, buckets, views, n_views, False, w_shapes)
    chain = StepPartitions(domain, elsewhere, buckets, views, n_views, True, chain_shapes)
    collision = _collision_partition(domain, views, counts, elsewhere)
    result = meet(chain[-1], collision)
    return LoopAnalysis(
        domain=domain,
        w_partitions=w_parts,
        w_chain=chain,
        collision=collision,
        result=result,
        iterations_analyzed=n,
        stabilized=stabilized,
    )


def _collision_partition(domain: Domain, views: Sequence[int], counts: Sequence[int | None],
                         elsewhere: Sequence[int]) -> Partition:
    """Transitive closure of "same view from different iteration counts":
    a view seen at two or more counts pulls all its inputs into one block;
    everything else stays on its own, keyed past every view number.  Inputs
    that never resolved share one block per low-part number."""
    seen_at: dict[int, set[int]] = {}
    for view, n in zip(views, counts):
        if n is not None:
            seen_at.setdefault(view, set()).add(n)
    return relabel(domain, [
        low if n is None else view if len(seen_at[view]) >= 2 else domain.size + i
        for i, (view, n, low) in enumerate(zip(views, counts, elsewhere))])


def program_capacity(p: Program, cfg: AttackerConfig) -> float:
    """Channel capacity of the program: log2 of its partition's block count."""
    _, part = loi(p, cfg)
    return channel_capacity(part)


def leakage(p: Program, cfg: AttackerConfig, mu: Distribution) -> float:
    """Leakage in bits under the given input distribution: H(X | L), the
    entropy of the program's partition X left to an attacker who already
    sees L = ``low_projection``.  X refines L (a passive key carries its
    low part; an active attacker's L is the one-block ⊥), so X ⊔ L = X
    and H(X | L) is H(X) − H(L), with no join built."""
    domain, part = loi(p, cfg)
    if mu.domain != domain:
        raise DomainMismatchError("distribution is not over the program's input atoms")
    return entropy(part, mu) - lows_entropy(domain, cfg, mu)


def lows_entropy(domain: Domain, cfg: AttackerConfig, mu: Distribution) -> float:
    """H(L) of L = ``low_projection``: 0.0, with no partition built, when
    ``cfg`` enumerates no low and L is the one-block ⊥."""
    if cfg.mode != PASSIVE or not cfg.low_vars:
        return 0.0
    return entropy(low_projection(domain, cfg), mu)
