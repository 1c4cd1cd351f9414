"""The benchmark's workloads: seeded inputs for one ``loiqif`` command each,
with the oracle that checks the command's output.

A workload is generated from the seed alone.  The CLI sees only the files
written from ``Workload.files`` and the arguments in ``Workload.argv``;
``Workload.check`` compares the stdout it printed with the result the
oracle recomputes from the generating function, without the library.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    argv: list[str]
    atoms: int                         # atoms one invocation enumerates
    check: Callable[[str], list[str]]  # stdout -> problems, empty when correct
    counts: dict[str, int]             # traced counters the oracle expects


def _config(bits: int, *, budget: int | None = None, low_bits: int | None = None) -> str:
    cfg: dict = {"high": [{"name": "h", "bits": bits}], "observe": ["o"]}
    if low_bits is not None:
        cfg["low"] = [{"name": "l", "bits": low_bits}]
        cfg["mode"] = "passive"
    if budget is not None:
        cfg["budget"] = budget
    return json.dumps(cfg)


def _mask(rng: random.Random, bits: int, ones: int) -> int:
    return sum(1 << i for i in rng.sample(range(bits), ones))


def _first_difference(got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return [f"line {i + 1}: got {g[:120]!r}, want {w[:120]!r}"]
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, want {len(want_lines)}"]
    return [] if got == want else ["output differs in line endings"]


# ---------------------------------------------------------------------------
# interp: the interpreter does nearly all the work and no measure runs, so
# per-atom evaluation cost (batch evaluation) shows here and the integer
# label/weight representation of the measures should not.

def interp(seed: int, smoke: bool = False) -> Workload:
    bits = 8 if smoke else 14
    rng = random.Random(f"interp:{seed}")
    key = rng.randrange(1 << bits)
    free = rng.choice((4, 5, 6))      # 2^free atoms spin until the budget runs out
    spin_mask = _mask(rng, bits, bits - free)
    spin_value = rng.randrange(1 << bits) & spin_mask
    zero = rng.randrange(1, bits)     # atoms with this popcount divide by zero
    source = (
        f"// popcount of h ^ {key}; a few atoms spin, one popcount faults\n"
        f"x = h ^ {key};\n"
        "c = 0;\n"
        "while (x > 0) {\n"
        "  c = c + (x & 1);\n"
        "  x = x >> 1;\n"
        "}\n"
        f"if ((h & {spin_mask}) == {spin_value}) {{\n"
        "  while (1) skip;\n"
        "}\n"
        f"o = c + 100 / (c - {zero});\n")

    def outcome(h: int):
        if h & spin_mask == spin_value:
            return "non-termination"
        c = bin(h ^ key).count("1")
        return "runtime-error" if c == zero else c + 100 // (c - zero)

    atoms = range(1 << bits)
    blocks = oracle.kernel_blocks(atoms, outcome)
    kinds = Counter(o if isinstance(o, str) else "terminated" for o in map(outcome, atoms))
    head = (f"partition: {oracle.summary_text(oracle.histogram(blocks))}\n"
            f"blocks: {len(blocks)}\n")
    capacity_line = "channel capacity (bits): "

    def check(stdout: str) -> list[str]:
        if not stdout.startswith(head):
            return _first_difference(stdout[:len(head)], head)
        rest = stdout[len(head):]
        if not (rest.startswith(capacity_line) and rest.endswith("\n")
                and rest.count("\n") == 1):
            return [f"bad capacity line {rest[:120]!r}"]
        if not oracle.close(rest[len(capacity_line):], oracle.capacity(blocks)):
            return [f"capacity {rest.strip()!r}, want {oracle.capacity(blocks)}"]
        return []

    return Workload(
        name="interp",
        # The step budget covers the popcount loop (3 steps a bit) with room
        # to spare, so only the spinning atoms exhaust it.
        files={"interp.wh": source, "interp.json": _config(bits, budget=3 * bits + 16)},
        argv=["capacity", "interp.wh", "--config", "interp.json"],
        atoms=1 << bits,
        check=check,
        counts={"lang.atoms": 1 << bits,
                "lang.terminated": kinds["terminated"],
                "lang.faulted": kinds["runtime-error"],
                "lang.nonterm": kinds["non-termination"]},
    )


# ---------------------------------------------------------------------------
# analyze-passive: one distribution feeds every measure, so the measures and
# distribution parsing dominate; it also covers tuple atoms, the passive
# conditional-entropy join and a large JSON output.

def analyze_passive(seed: int, smoke: bool = False) -> Workload:
    low_bits, high_bits, guesses = (2, 6, 8) if smoke else (3, 10, 8)
    rng = random.Random(f"analyze-passive:{seed}")
    mult = rng.randrange(1 << high_bits) | 1
    mask = _mask(rng, high_bits, high_bits // 2 + 1)
    source = f"o = (h ^ (l * {mult})) & {mask};\n"
    atoms = [(lo, hi) for lo in range(1 << low_bits) for hi in range(1 << high_bits)]
    weights = [0 if rng.random() < 0.25 else rng.randint(1, 1000) for _ in atoms]
    weights[rng.randrange(len(atoms))] += 1   # never all zero
    total = sum(weights)
    dist = {"domain": [list(a) for a in atoms],
            "mass": {f"({lo},{hi})": str(Fraction(w, total))
                     for (lo, hi), w in zip(atoms, weights)}}

    blocks = oracle.kernel_blocks(atoms, lambda a: (a[0], (a[1] ^ (a[0] * mult)) & mask))
    weight = dict(zip(atoms, weights))
    bw = [[weight[a] for a in b] for b in blocks]
    lows = [[weight[a] for a in b] for b in oracle.kernel_blocks(atoms, lambda a: a[0])]
    rational = {
        "expected_guesses": oracle.expected_guesses(bw, total),
        "ge_leakage": oracle.ge_leakage(bw, total),
        "ge_prime": oracle.ge_prime(bw, total),
    }
    logs = {
        "entropy_bits": oracle.entropy(bw, total),
        "me_leakage_bits": oracle.me_leakage(bw, total),
        "me_prime_bits": oracle.me_prime(bw, total),
        "channel_capacity_bits": oracle.capacity(bw),
    }
    g = {str(n): oracle.guess_prob(bw, total, n) for n in range(1, guesses + 1)}
    leakage = oracle.entropy(bw, total) - oracle.entropy(lows, total)
    want_blocks = [[list(a) for a in b] for b in blocks]

    def check(stdout: str) -> list[str]:
        try:
            obj = json.loads(stdout)
            m = obj["measures"]
            problems = []
            if obj["mode"] != "passive" or len(obj["warnings"]) != 1:
                problems.append("passive mode or its leakage warning is missing")
            if obj["partition"]["domain"] != dist["domain"]:
                problems.append("partition domain differs")
            if obj["partition"]["blocks"] != want_blocks:
                problems.append("partition blocks differ")
            if {n: Fraction(v) for n, v in m["guess_prob"].items()} != g:
                problems.append("G_1..G_n differ")
            problems += [f"{k} = {m[k]}, want {v}" for k, v in rational.items()
                         if Fraction(m[k]) != v]
            problems += [f"{k} = {m[k]}, want {v}" for k, v in logs.items()
                         if not oracle.close(m[k], v)]
            if not oracle.close(obj["leakage_bits"], leakage):
                problems.append(f"leakage {obj['leakage_bits']}, want {leakage}")
            return problems
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable analyze output: {exc!r}"]

    return Workload(
        name="analyze-passive",
        files={"passive.wh": source,
               "passive.json": _config(high_bits, low_bits=low_bits),
               "mu.json": json.dumps(dist, separators=(",", ":"))},
        argv=["analyze", "passive.wh", "--config", "passive.json", "--dist", "mu.json",
              "--guesses", str(guesses), "--json"],
        atoms=len(atoms),
        check=check,
        counts={"lang.atoms": len(atoms), "lang.terminated": len(atoms),
                "lang.faulted": 0, "lang.nonterm": 0},
    )


# ---------------------------------------------------------------------------
# compare-audit: about twenty distributions each feed only four measures,
# so Distribution construction weighs more than in analyze-passive, and
# the seeded audit takes nearly all the time.

def compare_audit(seed: int, smoke: bool = False) -> Workload:
    bits, trials = (7, 4) if smoke else (10, 20)
    rng = random.Random(f"compare-audit:{seed}")
    while True:   # two distinct masks of one size: incomparable partitions
        m1, m2 = _mask(rng, bits, bits // 2), _mask(rng, bits, bits // 2)
        if m1 != m2:
            break
    key = rng.randrange(1 << bits)
    atoms = list(range(1 << bits))
    x = oracle.kernel_blocks(atoms, lambda h: h & m1)
    y = oracle.kernel_blocks(atoms, lambda h: (h ^ key) & m2)

    def check_witness(w: dict, finer: list[list], coarser: list[list], label: str) -> list[str]:
        # w refutes "finer <= coarser": the first block of ``coarser`` split
        # by ``finer`` carries all the mass, and every measure disagrees.
        split = next(b for b in coarser if not oracle.refines([b], finer))
        block = w["violated_block"]
        if w["distribution"]["domain"] != atoms:
            return [f"witness {label} has another domain"]
        if block != split or w["n"] != len(block) - 1:
            return [f"witness {label} names block {block[:8]} n={w['n']}"]
        mass = {int(a): Fraction(m) for a, m in w["distribution"]["mass"].items()}
        if mass != {a: Fraction(int(a in block), len(block)) for a in atoms}:
            return [f"witness {label} is not uniform on its block"]
        weight, total = oracle.weights_from_masses(mass)
        fw = [[weight[a] for a in b] for b in finer]
        cw = [[weight[a] for a in b] for b in coarser]
        n = w["n"]
        if not (oracle.guess_prob(fw, total, n) > oracle.guess_prob(cw, total, n)
                and oracle.guess_prob(fw, total, 1) > oracle.guess_prob(cw, total, 1)
                and oracle.entropy(fw, total) > oracle.entropy(cw, total)
                and oracle.expected_guesses(fw, total) < oracle.expected_guesses(cw, total)):
            return [f"witness {label} does not separate the measures"]
        return []

    def check(stdout: str) -> list[str]:
        try:
            obj = json.loads(stdout)
            problems = []
            if obj["relation"] != "incomparable":
                problems.append(f"relation {obj['relation']}, want incomparable")
            if obj["partition1"]["blocks"] != x or obj["partition2"]["blocks"] != y:
                problems.append("partitions differ")
            if obj["audit"]["samples"] != trials + 2 or obj["audit"]["violations"] != 0:
                problems.append(f"audit {obj['audit']}")
            return (problems + check_witness(obj["witness_xy"], x, y, "P1 <= P2")
                    + check_witness(obj["witness_yx"], y, x, "P2 <= P1"))
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            return [f"unreadable compare output: {exc!r}"]

    return Workload(
        name="compare-audit",
        files={"p1.wh": f"o = h & {m1};\n", "p2.wh": f"o = (h ^ {key}) & {m2};\n",
               "compare.json": _config(bits)},
        argv=["compare", "p1.wh", "p2.wh", "--config", "compare.json",
              "--trials", str(trials), "--seed", str(seed), "--json"],
        atoms=2 << bits,
        check=check,
        counts={"lang.atoms": 2 << bits, "ordering.audit.samples": trials + 2,
                "ordering.audit.violations": 0},
    )


# ---------------------------------------------------------------------------
# loop-chain: the only workload that runs the loop decomposition, whose
# W-chain is quadratic; the mask makes the collision partition non-trivial
# (blocks of four counts with one output), and the text prints every chain
# element.

def loop_chain(seed: int, smoke: bool = False) -> Workload:
    bits = 7 if smoke else 9
    rng = random.Random(f"loop-chain:{seed}")
    key = rng.randrange(1 << bits)
    mask = (1 << (bits - 2)) - 1
    step = rng.randrange(1, mask + 1, 2)   # odd: each output comes from 4 counts
    source = (f"x = h ^ {key};\n"
              "o = 0;\n"
              "while (x > 0) {\n"
              "  x = x - 1;\n"
              f"  o = (o + {step}) & {mask};\n"
              "}\n")

    atoms = range(1 << bits)
    count = {h: h ^ key for h in atoms}
    out = {h: (step * count[h]) & mask for h in atoms}
    by_count: dict[int, list[int]] = {}
    for h in atoms:
        by_count.setdefault(count[h], []).append(h)
    resolved_by = max(count.values())

    def groups(i: int) -> list[list[int]]:
        return oracle.kernel_blocks(by_count.get(i, []), out.__getitem__)

    # W_i tells apart the atoms that finish after i iterations; W_<=i joins
    # W_0..W_i, so it refines W_<=i-1 and equals it iff no block was added.
    lines, chain_lines = [], []
    chain = Counter()
    rest = len(atoms)
    n = 0
    while True:
        w = oracle.histogram(groups(n))
        left = len(atoms) - sum(s * c for s, c in w.items())
        if left:
            w[left] += 1
        lines.append(f"W_{n}: {oracle.summary_text(w)}")
        before = sum(chain.values()) + (rest > 0)
        for g in groups(n):
            chain[len(g)] += 1
            rest -= len(g)
        now = chain + Counter({rest: 1} if rest else {})
        chain_lines.append(f"W_<={n}: {oracle.summary_text(now)}")
        if n >= 1 and sum(now.values()) == before and n >= resolved_by:
            break
        n += 1

    final = oracle.kernel_blocks(
        atoms, lambda h: (count[h], out[h]) if count[h] <= n else None)
    seen_at: dict[int, set[int]] = {}
    for h in atoms:
        seen_at.setdefault(out[h], set()).add(count[h])
    collision = oracle.kernel_blocks(
        atoms, lambda h: out[h] if len(seen_at[out[h]]) >= 2 else ("alone", h))
    result = oracle.meet_blocks(atoms, final, collision)
    direct = oracle.kernel_blocks(atoms, out.__getitem__)
    if not oracle.same_partition(result, direct):
        raise AssertionError("loop-chain generator: result and direct loi differ")
    expected = "\n".join(lines + chain_lines + [
        f"collision C: {oracle.summary_text(oracle.histogram(collision))}",
        f"result: {oracle.summary_text(oracle.histogram(result))}",
        f"iterations analyzed: {n} (stabilized: yes)",
        f"direct loi: {oracle.summary_text(oracle.histogram(direct))}",
        "cross-check result == direct loi: pass",
    ]) + "\n"

    return Workload(
        name="loop-chain",
        files={"loop.wh": source, "loop.json": _config(bits)},
        argv=["loop", "loop.wh", "--config", "loop.json"],
        atoms=2 << bits,   # loop_analyze and the direct loi each enumerate the domain
        check=lambda stdout: _first_difference(stdout, expected),
        counts={"lang.atoms": 2 << bits, "analysis.loop.iterations": n,
                "analysis.loop.collision_blocks": len(collision)},
    )


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "interp": interp,
    "analyze-passive": analyze_passive,
    "compare-audit": compare_audit,
    "loop-chain": loop_chain,
}
