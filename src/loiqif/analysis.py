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
  who already sees the low inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

from .lang import (
    _SHIFT_LIMIT,
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
from .measures import Distribution, channel_capacity, conditional_entropy
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

@dataclass(frozen=True)
class LoopAnalysis:
    """Per-iteration decomposition of a loop's partition.

    ``w_partitions[i]`` distinguishes inputs by their output when the
    loop finishes in exactly i iterations (everything else pooled);
    ``w_chain[i]`` is the join of the first i+1 of those.  ``collision``
    merges inputs whose runs produce the same output at two or more
    different iteration counts (inputs that never resolve form one
    block).  ``result`` is the meet of the final chain element with the
    collision partition and equals the program's partition whenever the
    chain stabilized.
    """

    domain: Domain
    w_partitions: tuple[Partition, ...]
    w_chain: tuple[Partition, ...]
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


def loop_analyze(p: Program, cfg: AttackerConfig,
                 max_iterations: int | None = None) -> LoopAnalysis:
    """Analyze the first top-level while loop of the program.

    ``max_iterations`` caps the chain length.  The default is one past the
    largest iteration count any run reached: no run finishes later, so by
    then the chain has stopped growing and always stabilizes.  Partitions
    are kernels of the keys ``runs`` gives, so a passive attacker also
    tells apart runs with different lows.
    """
    loop = _find_top_level_loop(p.body)
    if loop is None:
        raise AnalysisError("no top-level while loop to analyze")
    if max_iterations is not None and max_iterations < 1:
        raise AnalysisError("max_iterations must be >= 1")

    domain, chunks = runs(p, cfg, loop)
    views: list = []
    counts: list[int | None] = []
    for keys, chunk_counts in chunks:
        views += keys
        counts += chunk_counts
    # Number the views 0, 1, ... and the low parts -1, -2, ... once: every
    # key below is one of these integers, so no view meets a low part.
    numbered = relabel(domain, views)
    views, n_views = numbered.labels, numbered.n_blocks
    elsewhere = [~low for low in low_projection(domain, cfg).labels]
    resolved_by = max((n for n in counts if n is not None), default=0)
    if max_iterations is None:
        max_iterations = resolved_by + 1
    # buckets[i]: the positions of the atoms done after exactly i iterations.
    # The chain stops at resolved_by + 1 at the latest, whose bucket is empty.
    buckets: list[list[int]] = [[] for _ in range(resolved_by + 2)]
    for position, n in enumerate(counts):
        if n is not None:
            buckets[n].append(position)

    # W_<=i, the join of W_0 .. W_i, keys an atom done after j <= i
    # iterations by (j, view) and every other atom by its low part: a view
    # fixes the low part, so two atoms every W_j keys alike share both.
    # ``running`` holds those keys, so step i rewrites only bucket i.  Each
    # join refines the one before, so the chain has stopped growing when
    # its block count has.
    running = elsewhere[:]
    chain: list[Partition] = []
    stabilized = False
    for n in range(max_iterations + 1):
        for position in buckets[n]:
            running[position] = n * n_views + views[position]
        chain.append(relabel(domain, running))
        if n and chain[-1].n_blocks == chain[-2].n_blocks and n >= resolved_by:
            stabilized = True
            break
    # W_i keys bucket i by view and every other atom by its low part.  They
    # are built after the chain, not in turn with it: interleaving the two
    # kinds of label tuple fragments the heap (11 MB more peak RSS for the
    # countdown loop at 11 bits).
    w_parts = []
    for bucket in buckets[:len(chain)]:
        keys = elsewhere[:]
        for position in bucket:
            keys[position] = views[position]
        w_parts.append(relabel(domain, keys))

    collision = _collision_partition(domain, views, counts, elsewhere)
    result = meet(chain[-1], collision)
    return LoopAnalysis(
        domain=domain,
        w_partitions=tuple(w_parts),
        w_chain=tuple(chain),
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
    """Leakage in bits under the given input distribution: H(X | L) =
    H(X ⊔ L) − H(L), the entropy of the program's partition X left to an
    attacker who already sees L = ``low_projection``.  For an active
    attacker L is the one-block partition ⊥, so the same formula gives
    H(X) − 0 = H(X)."""
    domain, part = loi(p, cfg)
    if mu.domain != domain:
        raise DomainMismatchError("distribution is not over the program's input atoms")
    return conditional_entropy(part, low_projection(domain, cfg), mu)
