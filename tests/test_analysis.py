import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from loiqif import (
    AttackerConfig,
    Distribution,
    Domain,
    DomainMismatchError,
    Partition,
    bottom,
    entropy,
    join,
    leakage,
    leaks_same_information,
    leq,
    loi,
    loop_analyze,
    meet,
    multi_run,
    parse,
    program_capacity,
    program_to_source,
    self_compose,
    top,
)
from loiqif.analysis import AnalysisError
from loiqif.lang import (
    _SUB_NODE_FIELDS,
    NON_TERMINATION,
    PASSIVE,
    Observable,
    Unary,
    _walk,
    eval_program,
    map_nodes,
)

from helpers import check_partition_refines_lows, loop_analysis_reference, store_of

PASSWORD = parse("if (h == l) o = 1; else o = 2;")


def cfg_high(bits=2, observe=("o",), **kw):
    return AttackerConfig(high_vars=(("h", bits),), observed_vars=tuple(observe), **kw)


def password_cfg(bits=3, value=0):
    return AttackerConfig(high_vars=(("h", bits),), low_vars=(("l", bits, value),),
                          observed_vars=("o",))


# ---------------------------------------------------------------------------
# multi_run

def test_password_runs_join():
    cfg = password_cfg()
    parts = [loi(PASSWORD, cfg.with_low_values({"l": v}))[1] for v in (5, 7)]
    d = Domain(range(8))
    assert parts[0] == Partition(d, [[5], [0, 1, 2, 3, 4, 6, 7]])
    assert multi_run(parts) == Partition(d, [[5], [7], [0, 1, 2, 3, 4, 6]])


def test_multi_run_single_and_idempotent():
    cfg = password_cfg()
    part = loi(PASSWORD, cfg.with_low_values({"l": 5}))[1]
    assert multi_run([part]) == part
    assert multi_run([part] * 4) == part


def test_multi_run_order_insensitive():
    cfg = password_cfg()
    parts = [loi(PASSWORD, cfg.with_low_values({"l": v}))[1] for v in (1, 4, 6)]
    expected = multi_run(parts)
    for perm in itertools.permutations(parts):
        assert multi_run(list(perm)) == expected


def test_multi_run_rejects_empty_and_mismatched():
    with pytest.raises(AnalysisError):
        multi_run([])
    d1, d2 = Domain(range(2)), Domain(range(3))
    with pytest.raises(DomainMismatchError):
        multi_run([top(d1), top(d2)])


# ---------------------------------------------------------------------------
# leaks_same_information

def test_last_bit_leak_is_stable_across_runs():
    p = parse("o = h & 1;")
    part = loi(p, cfg_high(bits=3))[1]
    same, pair = leaks_same_information([part, part, part])
    assert same and pair is None


def test_password_with_different_lows_leaks_differently():
    cfg = password_cfg()
    parts = [loi(PASSWORD, cfg.with_low_values({"l": v}))[1] for v in (5, 7)]
    same, pair = leaks_same_information(parts)
    assert not same and pair == (0, 1)


def test_chain_of_refinements_counts_as_same_information():
    d = Domain(range(4))
    chain = [bottom(d), Partition(d, [[0, 1], [2, 3]]), top(d)]
    same, pair = leaks_same_information(chain)
    assert same and pair is None


def test_leaks_same_information_needs_two_runs():
    with pytest.raises(AnalysisError):
        leaks_same_information([top(Domain(range(2)))])


# ---------------------------------------------------------------------------
# self_compose

def test_worked_composition_pair():
    p1 = parse("if (h==0) x=0; else x=1;")
    p2 = parse("if (h==1) x=0; else x=1;")
    cfg = cfg_high(observe=("x",))
    composed, ccfg = self_compose(p1, p2, cfg)
    d, got = loi(composed, ccfg)
    assert got == Partition(Domain(range(4)), [[0], [1], [2, 3]])
    assert got == join(loi(p1, cfg)[1], loi(p2, cfg)[1])
    assert ccfg.observed_vars == ("x__1", "x__2")


def test_composition_with_itself_adds_nothing():
    p = parse("o = h & 1;")
    cfg = cfg_high(bits=3)
    composed, ccfg = self_compose(p, p, cfg)
    assert loi(composed, ccfg)[1] == loi(p, cfg)[1]


def test_composition_with_constant_is_identity():
    constant = parse("x = 5;")
    p2 = parse("x = h & 3;")
    cfg = cfg_high(bits=3, observe=("x",))
    composed, ccfg = self_compose(constant, p2, cfg)
    assert loi(composed, ccfg)[1] == loi(p2, cfg)[1]


def test_composed_source_reparses_to_the_same_program():
    p1 = parse("if (h==0) x=0; else x=1;")
    p2 = parse("x = h >> 1;")
    cfg = cfg_high(observe=("x",))
    composed, ccfg = self_compose(p1, p2, cfg)
    again = parse(program_to_source(composed))
    assert again == composed
    assert loi(again, ccfg)[1] == loi(composed, ccfg)[1]


def test_composition_masks_writes_to_declared_variables():
    # the program overflows a 2-bit low on purpose; the renamed copy must
    # wrap identically even though the alias carries no declared width
    p = parse("l = l + 3; o = l;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    composed, ccfg = self_compose(p, p, cfg)
    assert loi(composed, ccfg)[1] == loi(p, cfg)[1]
    assert "& 3" in program_to_source(composed)


def test_composition_rejects_a_mask_past_the_shift_limit():
    p = parse("l = 0 - h;\no = l;\n")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 10 ** 30, 5),),
                         observed_vars=("o",))
    with pytest.raises(AnalysisError, match=f"'l' is {10 ** 30} bits wide"):
        self_compose(p, p, cfg)


def test_composition_joins_passive_partitions():
    p1 = PASSWORD
    p2 = parse("o = h & 1;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    composed, ccfg = self_compose(p1, p2, cfg)
    assert loi(composed, ccfg)[1] == join(loi(p1, cfg)[1], loi(p2, cfg)[1])


_OPS = ["+", "-", "*", "&", "|", "^"]


def _rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["h", str(rng.randint(0, 7))])
    return f"({_rand_expr(rng, depth - 1)} {rng.choice(_OPS)} {_rand_expr(rng, depth - 1)})"


def _rand_program(rng):
    lines = [f"x = {_rand_expr(rng, 2)};"]
    if rng.random() < 0.6:
        lines.append(f"if ({_rand_expr(rng, 1)} < {_rand_expr(rng, 1)}) x = {_rand_expr(rng, 2)}; "
                     f"else x = x ^ {rng.randint(0, 7)};")
    return parse("\n".join(lines))


def test_composition_law_on_generated_pairs():
    rng = random.Random(1001)
    cfg = cfg_high(bits=3, observe=("x",))
    for _ in range(8):
        p1, p2 = _rand_program(rng), _rand_program(rng)
        composed, ccfg = self_compose(p1, p2, cfg)
        assert loi(composed, ccfg)[1] == join(loi(p1, cfg)[1], loi(p2, cfg)[1])


# Between them the two programs use every node kind, nested blocks and an
# assignment to a declared variable (masked in the composed copies).
_EVERY_NODE_KIND = (
    "o = 0; x = h; h = h + 5;\n"
    "while (x > 0) { x = x - 1; if (x & 1) { o = o + l; { skip; } } else skip; }",
    "if (!(h == l)) { o = -h; } else { { o = ~h & true | false; } }",
)


def test_composition_of_every_node_kind():
    p1, p2 = map(parse, _EVERY_NODE_KIND)
    assert {type(n) for p in (p1, p2) for n, _ in _walk(p)} == set(_SUB_NODE_FIELDS)
    cfg = AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, 3),),
                         observed_vars=("o",))
    composed, ccfg = self_compose(p1, p2, cfg)
    assert loi(composed, ccfg)[1] == join(loi(p1, cfg)[1], loi(p2, cfg)[1])
    assert parse(program_to_source(composed)) == composed
    assert "h__1 = h__1 + 5 & 7;" in program_to_source(composed)
    for p in (p1, p2, composed):
        assert map_nodes(p, lambda node: node) == p


def test_map_nodes_rejects_a_non_node():
    with pytest.raises(TypeError, match="not an AST node"):
        map_nodes("h", lambda node: node)
    with pytest.raises(TypeError, match="not an AST node"):
        map_nodes(Unary("-", 3), lambda node: node)


def test_active_leakage_is_exactly_the_partition_entropy():
    rng = random.Random(1001)
    dist_rng = random.Random(7)
    cfgs = (cfg_high(bits=3, observe=("x",)),
            AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, 1),),
                           observed_vars=("x",)))
    for _ in range(8):
        p = _rand_program(rng)
        for cfg in cfgs:
            d, x = loi(p, cfg)
            for mu in (Distribution.uniform(d), Distribution.random(d, dist_rng)):
                assert leakage(p, cfg, mu) == entropy(x, mu)


def test_composition_rejects_name_collisions():
    p1 = parse("x = h; x__1 = 0;")
    p2 = parse("x = h;")
    cfg = cfg_high(observe=("x",))
    with pytest.raises(AnalysisError, match="x__1"):
        self_compose(p1, p2, cfg)


# ---------------------------------------------------------------------------
# loop_analyze

LOOP = parse("l=0; while (l < h) { if (h==2) l=3; else l=l+1; }")


def loop_cfg(**kw):
    return cfg_high(observe=("l",), **kw)


def test_loop_worked_example_chain_and_collision():
    d = Domain(range(4))
    analysis = loop_analyze(LOOP, loop_cfg())
    w = analysis.w_partitions
    assert w[0] == Partition(d, [[0], [1, 2, 3]])
    assert w[1] == Partition(d, [[1], [2], [0, 3]])
    assert w[2] == bottom(d)
    assert w[3] == Partition(d, [[3], [0, 1, 2]])
    assert analysis.w_chain[1] == top(d)
    assert analysis.w_chain[-1] == top(d)
    assert analysis.collision == Partition(d, [[0], [1], [2, 3]])
    assert analysis.result == Partition(d, [[0], [1], [2, 3]])
    assert analysis.stabilized
    assert analysis.iterations_analyzed == 3
    assert analysis.result == loi(LOOP, loop_cfg())[1]


def test_loop_chain_is_monotone():
    analysis = loop_analyze(LOOP, loop_cfg())
    for a, b in zip(analysis.w_chain, analysis.w_chain[1:]):
        assert leq(a, b)


def test_zero_iteration_loop():
    p = parse("o = h & 1; while (o > 7) o = 0;")
    cfg = cfg_high(bits=2)
    analysis = loop_analyze(p, cfg)
    assert analysis.stabilized
    assert analysis.result == loi(p, cfg)[1]
    assert analysis.collision == top(Domain(range(4)))
    assert analysis.w_chain[-1] == analysis.w_partitions[0]


def test_countdown_loop_with_injective_outputs():
    p = parse("o = 0; while (h > o) o = o + 1;")
    cfg = cfg_high(bits=3)
    analysis = loop_analyze(p, cfg)
    d = Domain(range(8))
    # every input terminates at its own iteration count with its own output
    assert analysis.collision == top(d)
    assert analysis.result == analysis.w_chain[-1] == top(d)
    assert analysis.result == loi(p, cfg)[1]
    assert analysis.stabilized


def test_loop_with_truly_diverging_inputs():
    p = parse("l = 0; while (l < h) { if (h == 3) l = l; else l = l + 1; }")
    cfg = loop_cfg(step_budget=500)
    analysis = loop_analyze(p, cfg)
    assert analysis.stabilized
    assert analysis.result == loi(p, cfg)[1]
    d = Domain(range(4))
    assert analysis.result == Partition(d, [[0], [1], [2], [3]])
    views = {a: eval_program(p, {"h": a}, cfg) for a in d.atoms}
    assert views[3] == Observable(NON_TERMINATION)


def test_loop_cap_reports_non_stabilization():
    p = parse("o = 0; while (h > o) o = o + 1;")
    analysis = loop_analyze(p, cfg_high(bits=3), max_iterations=3)
    assert not analysis.stabilized
    assert analysis.iterations_analyzed == 3


def test_loop_analyze_requires_a_loop():
    with pytest.raises(AnalysisError, match="while"):
        loop_analyze(parse("o = h;"), cfg_high())


def test_loop_inside_top_level_block_is_found():
    p = parse("{ l = 0; while (l < h) l = l + 1; }")
    analysis = loop_analyze(p, loop_cfg())
    assert analysis.result == loi(p, loop_cfg())[1]


_PASSIVE_LOOP_CFG = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                                   observed_vars=("o",), mode=PASSIVE)
_LOOP_CASES = {
    "active, pinned low": (
        "x = h; o = 0; while (x != l) { x = (x + 1) % 8; o = (o + 1) % 3; }",
        AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 3, 2),), observed_vars=("o",)),
        {h: {"h": h, "l": 2} for h in range(8)}),
    "passive": (
        "x = h; o = 0; while (x > l) { x = x - 1; o = 1 - o; }",
        _PASSIVE_LOOP_CFG,
        {(l, h): {"l": l, "h": h} for l, h in itertools.product(range(4), repeat=2)}),
    "passive, lows 2 and 3 spin out of budget": (
        "x = h; o = 0; while (x > 0) { if (l < 2) x = x - 1; o = 1 - o; }",
        AttackerConfig(_PASSIVE_LOOP_CFG.high_vars, _PASSIVE_LOOP_CFG.low_vars,
                       ("o",), PASSIVE, step_budget=40),
        {(l, h): {"l": l, "h": h} for l, h in itertools.product(range(4), repeat=2)}),
    "a lone input at the index of a colliding view": (
        # h = 0 and 1 both stop after one pass with o = 0, each on its own;
        # o = 1 (the second view) comes at counts 2 and 3 and merges.
        "i = 0; while (i < h || i < 1) i = i + 1; o = h > 1;",
        AttackerConfig(high_vars=(("h", 2),), observed_vars=("o",)),
        {h: {"h": h} for h in range(4)}),
}


@pytest.mark.parametrize("name", list(_LOOP_CASES))
def test_loop_decomposition_matches_the_kernel_reference(name):
    source, cfg, stores = _LOOP_CASES[name]
    p = parse(source)
    analysis = loop_analyze(p, cfg)
    w, chain, collision, result = loop_analysis_reference(p, cfg, stores)
    assert analysis.domain == Domain(stores)
    assert tuple(analysis.w_partitions) == w
    assert tuple(analysis.w_chain) == chain
    assert analysis.collision == collision
    assert analysis.result == result == loi(p, cfg)[1]
    assert analysis.stabilized and len(chain) > 2
    # Some view shows up at two iteration counts, so collision merges.
    assert collision != top(analysis.domain)
    if "spin" in name:
        # Unresolved runs share one block per low part.
        assert collision.relates((2, 1), (2, 3)) and collision.relates((3, 1), (3, 2))
        assert not collision.relates((2, 1), (3, 1))


# Loops whose atoms finish at many iteration counts, with outputs that meet
# across counts, some faults, and, with a small budget or ``x != l`` from
# below, atoms that run out of steps.
_LOOP_CONFIGS = {
    "active, pinned low": AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, 1),),
                                         observed_vars=("o",)),
    "passive, enumerated low": _PASSIVE_LOOP_CFG,
    "passive, one pinned low": AttackerConfig(
        high_vars=(("h", 2),), low_vars=(("l", 1, None), ("m", 2, 3)),
        observed_vars=("o",), mode=PASSIVE),
}
_loop_programs = st.tuples(
    st.sampled_from(["h", "h ^ l", "h + l", "h * 3 % 5", "h - l"]),
    st.sampled_from(["x > 0", "x > l", "x != l", "x % 3 != 0", "x > 0 && !(x == l)"]),
    st.sampled_from(["x = x - 1;", "x = x - 2;", "x = x / 2;", "if (l < 1) x = x - 1; else x = x >> 1;"]),
    st.sampled_from(["o = o + 1;", "o = 1 - o;", "o = (o + 3) & 3;", "o = o ^ x;",
                     "o = o + 4 / (x - 1);"]),
    st.sampled_from(["", "o = o + x;", "o = o & 1;", "o = o % (x + 1);"]),
).map(lambda t: parse(f"x = {t[0]}; o = 0; while ({t[1]}) {{ {t[2]} {t[3]} }} {t[4]}"))


@given(_loop_programs, st.sampled_from(sorted(_LOOP_CONFIGS)), st.integers(6, 120),
       st.one_of(st.none(), st.integers(1, 8)))
def test_loop_analysis_matches_the_kernel_reference(p, config, budget, max_iterations):
    cfg = replace(_LOOP_CONFIGS[config], step_budget=budget)
    analysis = loop_analyze(p, cfg, max_iterations)
    stores = {a: store_of(cfg, a) for a in analysis.domain.atoms}
    w, chain, collision, result = loop_analysis_reference(p, cfg, stores, max_iterations)
    full_chain = loop_analysis_reference(p, cfg, stores)[1]
    assert analysis.domain == Domain(stores)
    assert (tuple(analysis.w_partitions), tuple(analysis.w_chain)) == (w, chain)
    assert (analysis.collision, analysis.result) == (collision, result)
    assert analysis.iterations_analyzed == len(chain) - 1
    assert analysis.stabilized == (chain == full_chain)
    if analysis.stabilized:
        assert result == loi(p, cfg)[1]


def _shape_of(x):
    sizes = Counter(Counter(x.labels).values())
    return x.n_blocks, tuple(sorted(sizes.items(), reverse=True))


@given(_loop_programs, st.integers(6, 120), st.one_of(st.none(), st.integers(1, 8)))
def test_loop_steps_store_the_shape_of_the_partitions_they_build(p, budget, max_iterations):
    # The text of ``loop`` reads each step's block count and size histogram
    # without building the step's partition; both must be the built one's.
    for config in _LOOP_CONFIGS.values():
        analysis = loop_analyze(p, replace(config, step_budget=budget), max_iterations)
        for steps in (analysis.w_partitions, analysis.w_chain):
            n = len(steps)
            assert n == analysis.iterations_analyzed + 1
            built = list(steps)
            assert len(built) == n
            for i, x in enumerate(built):
                assert steps[i] == steps[i - n] == x
                assert steps.shape(i) == _shape_of(x)
            assert steps[1:] == tuple(built[1:])
            assert list(reversed(steps)) == built[::-1]
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    steps[i]
        assert built[-1] == multi_run(list(analysis.w_partitions))
        assert analysis.result == meet(built[-1], analysis.collision)


@given(_loop_programs, st.sampled_from(sorted(_LOOP_CONFIGS)), st.integers(6, 120),
       st.integers(0, 99))
def test_loop_partitions_refine_the_lows_so_leakage_needs_no_join(p, config, budget, seed):
    check_partition_refines_lows(p, replace(_LOOP_CONFIGS[config], step_budget=budget), seed)


# ---------------------------------------------------------------------------
# program_capacity

def test_capacity_of_copy_and_constant():
    assert program_capacity(parse("o = h;"), cfg_high()) == 2.0
    assert program_capacity(parse("o = 9;"), cfg_high()) == 0.0


def test_capacity_monotone_under_refinement():
    m1 = parse("if (h==1) o=0; else o=1;")
    m2 = parse("o = h;")
    cfg = cfg_high()
    x1, x2 = loi(m1, cfg)[1], loi(m2, cfg)[1]
    assert leq(x1, x2)
    assert program_capacity(m1, cfg) <= program_capacity(m2, cfg)


def test_capacity_equality_does_not_imply_order():
    p_a = parse("o = h <= 2;")    # {{0,1,2},{3}}
    p_b = parse("o = h / 2;")     # {{0,1},{2,3}}
    cfg = cfg_high()
    x_a, x_b = loi(p_a, cfg)[1], loi(p_b, cfg)[1]
    assert not leq(x_a, x_b) and not leq(x_b, x_a)
    assert program_capacity(p_a, cfg) == program_capacity(p_b, cfg) == 1.0
