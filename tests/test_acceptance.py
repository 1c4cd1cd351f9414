"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[criterion N] PASS/FAIL`` line and enforces its stated tolerances and
runtime budget.  Rational measures are compared exactly, logarithmic
ones at the stated tolerance.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from loiqif import (
    AttackerConfig,
    Distribution,
    Domain,
    Partition,
    Relation,
    bottom,
    block_count,
    capacity_achieving_distribution,
    channel_capacity,
    compare,
    entropy,
    expected_guesses,
    find_split_block,
    ge_leakage,
    guess_prob,
    join,
    leakage,
    leq,
    loi,
    loop_analyze,
    meet,
    multi_run,
    parse,
    self_compose,
    top,
    verify_witness,
)
from loiqif.cli import main
from loiqif.lang import PASSIVE, low_projection
from loiqif.measures import one_try_gain
from loiqif.ordering import OrderWitness

from helpers import (
    all_partitions,
    conditional_entropy_oracle,
    entropy_oracle,
    ge_leakage_direct,
    me_leakage_direct,
    random_partition,
)

H_TOL = 1e-9
LOG_TOL = 1e-3


def _finish(num: int, name: str, failures: list[str], started: float,
            limit: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status}: {name} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:8])


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


CFG_2BIT = {"high": [{"name": "h", "bits": 2}], "low": [],
            "observe": ["o"], "mode": "active"}


# ---------------------------------------------------------------------------
# 1. Reference table reproduction via the analyze command

def test_criterion_1_reference_table(tmp_path, capsys):
    started = time.perf_counter()
    failures: list[str] = []

    cfg = _write(tmp_path, "cfg.json", CFG_2BIT)
    programs = {
        "M1": _write(tmp_path, "m1.wh", "if (h == 1) o = 0; else o = 1;\n"),
        "M2": _write(tmp_path, "m2.wh", "o = h;\n"),
    }
    expected = {
        "M1": {"H": 0.8112, "G": Fraction(1, 2), "NG": Fraction(7, 4),
               "ME": 1.0, "GE": Fraction(3, 4), "ME'": 0.415,
               "GE'": Fraction(5, 4)},
        "M2": {"H": 2.0, "G": Fraction(1), "NG": Fraction(1),
               "ME": 2.0, "GE": Fraction(3, 2), "ME'": 2.0,
               "GE'": Fraction(5, 2)},
    }
    for label, path in programs.items():
        code = main(["analyze", path, "--config", cfg, "--uniform", "--json"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"{label}: exit code {code}")
            continue
        m = json.loads(out)["measures"]
        want = expected[label]
        got_rationals = {
            "G": Fraction(m["guess_prob"]["1"]),
            "NG": Fraction(m["expected_guesses"]),
            "GE": Fraction(m["ge_leakage"]),
            "GE'": Fraction(m["ge_prime"]),
        }
        for key, value in got_rationals.items():
            if value != want[key]:
                failures.append(f"{label} {key}: {value} != {want[key]}")
        got_logs = {
            "H": float(m["entropy_bits"]),
            "ME": float(m["me_leakage_bits"]),
            "ME'": float(m["me_prime_bits"]),
        }
        for key, value in got_logs.items():
            if abs(value - want[key]) > LOG_TOL:
                failures.append(f"{label} {key}: {value} vs {want[key]}")

    _finish(1, "analyze reproduces the two-program reference table", failures,
            started, limit=1.0)


# ---------------------------------------------------------------------------
# 2. Worked-example golden suite

def test_criterion_2_worked_examples():
    started = time.perf_counter()
    failures: list[str] = []

    # two-try guessing probability
    d6 = Domain(["x1", "x2", "x3", "x4", "x5", "x6"])
    part = Partition(d6, [["x1", "x2", "x3", "x4"], ["x5", "x6"]])
    mu6 = Distribution(d6, {"x1": "1/16", "x2": "1/16", "x3": "1/16",
                            "x4": "1/16", "x5": "3/8", "x6": "3/8"})
    if guess_prob(part, mu6, 2) != Fraction(7, 8):
        failures.append(f"G_2 = {guess_prob(part, mu6, 2)} != 7/8")

    # expected guesses before/after a two-block observation
    d4 = Domain(["a", "b", "c", "d"])
    mu4 = Distribution(d4, {"a": "1/2", "b": "1/4", "c": "1/8", "d": "1/8"})
    if expected_guesses(bottom(d4), mu4) != Fraction(15, 8):
        failures.append("NG of the one-block partition != 15/8")
    if expected_guesses(Partition(d4, [["a", "d"], ["b", "c"]]), mu4) != Fraction(10, 8):
        failures.append("NG of {{a,d},{b,c}} != 10/8")

    # join/meet of the unrelated pair and the block-count anomaly
    d = Domain([1, 2, 3, 4])
    a = Partition(d, [[1, 2], [3, 4]])
    b = Partition(d, [[1, 3], [2, 4]])
    if join(a, b) != top(d) or meet(a, b) != bottom(d):
        failures.append("join/meet of the unrelated pair wrong")
    if not (block_count(join(a, b)) == 4
            and block_count(a) + block_count(b) - block_count(meet(a, b)) == 3):
        failures.append("block-count inclusion-exclusion failure not reproduced")

    # password double run join
    d8 = Domain(range(8))
    five = Partition(d8, [[5], [0, 1, 2, 3, 4, 6, 7]])
    seven = Partition(d8, [[7], [0, 1, 2, 3, 4, 5, 6]])
    if multi_run([five, seven]) != Partition(d8, [[5], [7], [0, 1, 2, 3, 4, 6]]):
        failures.append("password join wrong")

    # loop analysis goldens and the cross-check against direct loi
    loop = parse("l = 0; while (l < h) { if (h == 2) l = 3; else l = l + 1; }")
    cfg = AttackerConfig(high_vars=(("h", 2),), observed_vars=("l",))
    analysis = loop_analyze(loop, cfg)
    dl = Domain(range(4))
    gold = [
        (analysis.w_partitions[0], Partition(dl, [[0], [1, 2, 3]]), "W_0"),
        (analysis.w_partitions[1], Partition(dl, [[1], [2], [0, 3]]), "W_1"),
        (analysis.w_partitions[2], bottom(dl), "W_2"),
        (analysis.w_partitions[3], Partition(dl, [[3], [0, 1, 2]]), "W_3"),
        (analysis.w_chain[-1], top(dl), "chain limit"),
        (analysis.collision, Partition(dl, [[0], [1], [2, 3]]), "C"),
        (analysis.result, Partition(dl, [[0], [1], [2, 3]]), "result"),
        (analysis.result, loi(loop, cfg)[1], "cross-check vs direct loi"),
    ]
    for got, want, label in gold:
        if got != want:
            failures.append(f"loop {label}: {got} != {want}")

    _finish(2, "worked-example golden suite", failures, started, limit=1.0)


# ---------------------------------------------------------------------------
# 3. Order-equivalence of all measures

def _measure_row(x: Partition, mu: Distribution, ng_prior: Fraction,
                 g1_prior: Fraction):
    """(G_1..G_4, NG, H, one-try gain, GE) of one partition under one mu."""
    gs = [guess_prob(x, mu, n) for n in (1, 2, 3, 4)]
    ng = expected_guesses(x, mu)
    return (gs, ng, entropy(x, mu), gs[0] / g1_prior, ng_prior - ng)


def test_criterion_3_measure_orders_match_refinement():
    started = time.perf_counter()
    failures: list[str] = []

    for size, seed in ((4, 11), (5, 13)):
        d = Domain(range(size))
        parts = all_partitions(d)
        rng = random.Random(seed)
        mus = [Distribution.random(d, rng) for _ in range(100)]
        priors = [(expected_guesses(bottom(d), mu), max(mu.mass.values()))
                  for mu in mus]
        rows = [[_measure_row(p, mu, ngp, g1p)
                 for mu, (ngp, g1p) in zip(mus, priors)]
                for p in parts]
        order = [[leq(x, y) for y in parts] for x in parts]

        for i, x in enumerate(parts):
            for j, y in enumerate(parts):
                if order[i][j]:
                    # forward direction: every sampled distribution agrees
                    for mi in range(len(mus)):
                        gx, ngx, hx, mex, gex = rows[i][mi]
                        gy, ngy, hy, mey, gey = rows[j][mi]
                        if not all(gx[n] <= gy[n] for n in range(4)):
                            failures.append(f"size {size} pair {i},{j} mu {mi}: G_n order")
                        if ngy > ngx:
                            failures.append(f"size {size} pair {i},{j} mu {mi}: NG order")
                        if hx > hy + H_TOL:
                            failures.append(f"size {size} pair {i},{j} mu {mi}: H order")
                        if mex > mey:
                            failures.append(f"size {size} pair {i},{j} mu {mi}: ME order")
                        if gex > gey:
                            failures.append(f"size {size} pair {i},{j} mu {mi}: GE order")
                        if failures:
                            _finish(3, "measure orders match refinement",
                                    failures, started, limit=120.0)
                else:
                    # reverse direction: the constructed witness separates
                    block = find_split_block(x, y)
                    mu = Distribution.uniform_on(d, block)
                    n = len(block) - 1
                    w = OrderWitness(mu, n, block)
                    if not verify_witness(w, x, y):
                        failures.append(f"size {size} pair {i},{j}: witness rejected")
                    if not (one_try_gain(x, mu) > one_try_gain(y, mu)
                            and ge_leakage(x, mu) > ge_leakage(y, mu)):
                        failures.append(f"size {size} pair {i},{j}: ME/GE not separated")

    _finish(3, "measure orders match refinement (all size-4 and size-5 pairs, "
            "100 seeded distributions, n in 1..4)", failures, started, limit=120.0)


# ---------------------------------------------------------------------------
# 4. Constructive witness soundness

def test_criterion_4_witness_soundness():
    started = time.perf_counter()
    failures: list[str] = []

    incomparable = 0
    for size in (2, 3, 4, 5):
        parts = all_partitions(Domain(range(size)))
        for x, y in itertools.combinations(parts, 2):
            result = compare(x, y)
            if result.relation is not Relation.INCOMPARABLE:
                continue
            incomparable += 1
            if result.witness_xy is None or result.witness_yx is None:
                failures.append(f"missing witness at size {size}")
                continue
            if not verify_witness(result.witness_xy, x, y):
                failures.append(f"unsound witness_xy at size {size}: {x} vs {y}")
            if not verify_witness(result.witness_yx, y, x):
                failures.append(f"unsound witness_yx at size {size}: {x} vs {y}")
    if incomparable < 1000:
        failures.append(f"only {incomparable} incomparable pairs exercised")

    # eight-bit scale: reveal-on-multiple-of-8 vs copy-low-five-bits
    cfg = AttackerConfig(high_vars=(("h", 8),), observed_vars=("o",))
    _, x = loi(parse("if (h % 8 == 0) o = h; else o = 1;"), cfg)
    _, y = loi(parse("o = h & 037;"), cfg)
    result = compare(x, y)
    if result.relation is not Relation.INCOMPARABLE:
        failures.append("eight-bit pair not incomparable")
    else:
        w = result.witness_yx
        n = w.n
        if len(w.violated_block) != 224 or n != 223:
            failures.append(f"unexpected split block: {len(w.violated_block)} atoms")
        if guess_prob(x, w.distribution, n) != Fraction(n, n + 1):
            failures.append("G_n(X) != n/(n+1) under the witness")
        if guess_prob(y, w.distribution, n) != 1:
            failures.append("G_n(Y) != 1 under the witness")
        if not verify_witness(w, y, x):
            failures.append("eight-bit witness rejected")
        if not verify_witness(result.witness_xy, x, y):
            failures.append("mirrored eight-bit witness rejected")

    _finish(4, "constructive witnesses verified on every incomparable pair "
            "(sizes 2..5) and at eight-bit scale", failures, started, limit=120.0)


# ---------------------------------------------------------------------------
# 5. Leakage identity checks

def test_criterion_5_identity_checks():
    started = time.perf_counter()
    failures: list[str] = []

    rng = random.Random(20240815)
    for sample in range(500):
        size = rng.randint(2, 6)
        d = Domain(range(size))
        x = random_partition(d, rng)
        mu = Distribution.random(d, rng)
        ratio = one_try_gain(x, mu)
        if ratio != me_leakage_direct(x, mu):
            failures.append(f"sample {sample}: one-try gain forms disagree")
        if ratio * guess_prob(bottom(d), mu, 1) != guess_prob(x, mu, 1):
            failures.append(f"sample {sample}: gain identity broken")
        if ge_leakage(x, mu) != ge_leakage_direct(x, mu):
            failures.append(f"sample {sample}: GE forms disagree")
        if failures:
            break

    _finish(5, "min-entropy and guessing-entropy leakage identities "
            "(500 seeded samples, exact)", failures, started, limit=60.0)


# ---------------------------------------------------------------------------
# 6. Join semivaluation

def test_criterion_6_semivaluation():
    started = time.perf_counter()
    failures: list[str] = []

    for size, seed in ((2, 3), (3, 5), (4, 7)):
        d = Domain(range(size))
        parts = all_partitions(d)
        rng = random.Random(seed)
        mus = [Distribution.random(d, rng) for _ in range(100)]
        h = {(p.blocks, mi): entropy(p, mu)
             for p in parts for mi, mu in enumerate(mus)}
        for x, y in itertools.product(parts, parts):
            j, m = join(x, y), meet(x, y)
            below = leq(x, y)
            for mi in range(len(mus)):
                lhs = h[j.blocks, mi]
                rhs = h[x.blocks, mi] + h[y.blocks, mi] - h[m.blocks, mi]
                if lhs > rhs + H_TOL:
                    failures.append(f"size {size} mu {mi}: {lhs} > {rhs}")
                if below and h[x.blocks, mi] > h[y.blocks, mi] + H_TOL:
                    failures.append(f"size {size} mu {mi}: order preservation")
            if failures:
                break
        if failures:
            break

    _finish(6, "entropy is a join semivaluation (all size-<=4 pairs, "
            "100 distributions)", failures, started, limit=60.0)


# ---------------------------------------------------------------------------
# 7. Self-composition law

def test_criterion_7_self_composition():
    started = time.perf_counter()
    failures: list[str] = []

    pairs = []
    # the worked pair
    pairs.append((parse("if (h==0) x=0; else x=1;"),
                  parse("if (h==1) x=0; else x=1;"),
                  AttackerConfig(high_vars=(("h", 2),), observed_vars=("x",))))

    rng = random.Random(777)
    ops = ["+", "-", "*", "&", "|", "^"]

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["h", str(rng.randint(0, 15))])
        return f"({rand_expr(depth - 1)} {rng.choice(ops)} {rand_expr(depth - 1)})"

    def rand_program(bits):
        lines = [f"x = {rand_expr(2)};"]
        if rng.random() < 0.7:
            lines.append(
                f"if ({rand_expr(1)} < {rand_expr(1)}) x = {rand_expr(2)}; "
                f"else x = x ^ {rng.randint(0, (1 << bits) - 1)};")
        if rng.random() < 0.3:
            lines.append(f"x = x & {(1 << bits) - 1};")
        return parse("\n".join(lines))

    for _ in range(20):
        bits = rng.randint(2, 4)
        cfg = AttackerConfig(high_vars=(("h", bits),), observed_vars=("x",))
        pairs.append((rand_program(bits), rand_program(bits), cfg))

    for idx, (p1, p2, cfg) in enumerate(pairs):
        composed, ccfg = self_compose(p1, p2, cfg)
        want = join(loi(p1, cfg)[1], loi(p2, cfg)[1])
        got = loi(composed, ccfg)[1]
        if got != want:
            failures.append(f"pair {idx}: {got} != {want}")
            break

    _finish(7, f"self-composition law on {len(pairs)} program pairs "
            "(exact partition equality)", failures, started, limit=30.0)


# ---------------------------------------------------------------------------
# 8. Channel capacity

def test_criterion_8_capacity():
    started = time.perf_counter()
    failures: list[str] = []

    # log2(block count), achieved exactly by one atom per block
    for size in (2, 3, 4, 5):
        d = Domain(range(size))
        for x in all_partitions(d):
            if channel_capacity(x) != math.log2(block_count(x)):
                failures.append(f"capacity of {x} not log2(blocks)")
            mu = capacity_achieving_distribution(x)
            if entropy(x, mu) != channel_capacity(x):
                failures.append(f"capacity of {x} not achieved exactly")

    # monotone under refinement
    d = Domain(range(4))
    parts = all_partitions(d)
    for x, y in itertools.product(parts, parts):
        if leq(x, y) and channel_capacity(x) > channel_capacity(y):
            failures.append(f"capacity not monotone on {x} <= {y}")

    # equal capacity does not imply order
    da = Domain(["a", "b", "c", "d"])
    x = Partition(da, [["a", "b", "c"], ["d"]])
    y = Partition(da, [["a", "b"], ["c", "d"]])
    if leq(x, y) or leq(y, x):
        failures.append("regression pair unexpectedly ordered")
    if not channel_capacity(x) == channel_capacity(y) == 1.0:
        failures.append("regression pair capacities differ from 1")

    _finish(8, "channel capacity: exact value, achieving distribution, "
            "monotonicity, non-converse pair", failures, started, limit=30.0)


# ---------------------------------------------------------------------------
# 9. Passive leakage by definition (substitute for non-desk-scale studies)

def test_criterion_9_passive_leakage_definition(tmp_path, capsys):
    started = time.perf_counter()
    failures: list[str] = []

    program = parse("if (h == l) o = 1; else o = 2;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    d, x = loi(program, cfg)
    mu = Distribution.uniform(d)
    got = leakage(program, cfg, mu)

    low = low_projection(d, cfg)
    oracle = entropy_oracle(x, mu) - entropy_oracle(low, mu)
    if abs(got - oracle) > H_TOL:
        failures.append(f"leakage {got} != H(partition) - H(lows) = {oracle}")
    cond_oracle = conditional_entropy_oracle(x, low, mu)
    if abs(got - cond_oracle) > 1e-7:
        failures.append(f"leakage {got} != conditional-entropy oracle {cond_oracle}")
    if abs(got - 0.8112781244591329) > LOG_TOL:
        failures.append(f"leakage {got} not ~0.811")
    # the once-printed 0.60375 figure is not reproducible from the definition
    if abs(got - 0.60375) < 0.1:
        failures.append("leakage unexpectedly near the non-derivable constant")

    pw = _write(tmp_path, "pw.wh", "if (h == l) o = 1; else o = 2;\n")
    cfgf = _write(tmp_path, "cfg.json", {
        "high": [{"name": "h", "bits": 2}],
        "low": [{"name": "l", "bits": 2}],
        "observe": ["o"], "mode": "passive"})
    code = main(["analyze", pw, "--config", cfgf, "--uniform", "--json"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"analyze exited {code}")
    else:
        report = json.loads(out)
        if float(report["leakage_bits"]) != pytest.approx(got, abs=1e-6):
            failures.append("report leakage differs from library leakage")
        if not report["warnings"]:
            failures.append("passive report carries no definitional warning")

    _finish(9, "passive leakage equals the exact conditional-entropy oracle "
            "(~0.811 for the two-bit case), documented in report warnings",
            failures, started, limit=30.0)
