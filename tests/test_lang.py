import itertools
import random
import re
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loiqif import (
    ConfigError,
    Distribution,
    Domain,
    DomainMismatchError,
    EnumerationCapError,
    InvalidPartitionError,
    ParseError,
    block_count,
    bottom,
    channel_capacity,
    entropy,
    eval_program,
    kernel,
    leakage,
    leq,
    loi,
    parse,
    program_to_source,
    self_compose,
    top,
)
from loiqif import lang
from loiqif.analysis import _find_top_level_loop, loop_analyze
from loiqif.lang import (
    _BINARY_LEVELS,
    _BINARY_TEMPLATES,
    _UNARY_TEMPLATES,
    ACTIVE,
    CHUNK_SIZE,
    DEFAULT_BUDGET,
    MAX_DEPTH,
    NON_TERMINATION,
    PASSIVE,
    RUNTIME_ERROR,
    TERMINATED,
    Assign,
    AttackerConfig,
    Binary,
    BoolLit,
    If,
    IntLit,
    Observable,
    Program,
    Seq,
    Skip,
    Unary,
    Var,
    While,
    _EXPRESSION_DEPTH,
    _SHIFT_LIMIT,
    _STATEMENT_DEPTH,
    _Fault,
    _walk,
    assigned_vars,
    config_from_json,
    enumerate_domain,
    expr_to_source,
    low_projection,
    read_vars,
    run_counting_loop,
    runs,
)
from loiqif.partition import relabel

from helpers import (
    check_partition_refines_lows,
    conditional_entropy_oracle,
    entropy_oracle,
    eval_expr_reference,
    loop_analysis_reference,
    run_counting_loop_reference,
    runs_reference,
    store_of,
)


def cfg_high(bits=2, observe=("o",), **kw):
    return AttackerConfig(high_vars=(("h", bits),), observed_vars=tuple(observe), **kw)


# ---------------------------------------------------------------------------
# Parsing

def test_parse_single_conditional():
    p = parse("if (h==0) x=0; else x=1;")
    assert p == Program(Seq((
        If(Binary("==", Var("h"), IntLit(0)),
           Assign("x", IntLit(0)),
           Assign("x", IntLit(1))),
    )))


def test_octal_literal():
    p = parse("o = h & 037;")
    assert p.body.stmts[0].expr.right == IntLit(31)
    assert parse("o = 0x1f;").body.stmts[0].expr == IntLit(31)
    with pytest.raises(DeprecationWarning if False else ParseError):
        parse("o = 08;")


def test_parse_loop_listing():
    p = parse("while (l < h) { if (h==2) l=3; else l=l+1; }")
    loop = p.body.stmts[0]
    assert isinstance(loop, While)
    assert isinstance(loop.body, If)


def test_precedence_and_associativity():
    e = parse("o = 1 + 2 * 3;").body.stmts[0].expr
    assert e == Binary("+", IntLit(1), Binary("*", IntLit(2), IntLit(3)))
    e = parse("o = 8 - 4 - 2;").body.stmts[0].expr
    assert e == Binary("-", Binary("-", IntLit(8), IntLit(4)), IntLit(2))
    e = parse("o = h & 3 == 1;").body.stmts[0].expr
    # C-style: comparison binds tighter than bitwise and
    assert e.op == "&" and e.right.op == "=="


def test_dangling_else_binds_inner_if():
    p = parse("if (a) if (b) x=1; else x=2;")
    outer = p.body.stmts[0]
    assert outer.else_branch == Skip()
    assert outer.then_branch.else_branch == Assign("x", IntLit(2))


def test_comments_and_blocks():
    # brace blocks carry no scope: their statements splice into the sequence
    p = parse("// setup\n{ x = 1; // inline\n y = 2; }")
    assert p.body == Seq((Assign("x", IntLit(1)), Assign("y", IntLit(2))))
    with_block = parse("if (h) { x = 1; y = 2; }")
    assert with_block.body.stmts[0].then_branch == Seq(
        (Assign("x", IntLit(1)), Assign("y", IntLit(2))))


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as item:
        parse("if h == 0) x=1;")
    err = item.value
    assert (err.line, err.col) == (1, 4)
    assert "(" in err.expected
    with pytest.raises(ParseError, match="2:3"):
        parse("x = 1;\n  = 2;")


def test_unknown_character():
    with pytest.raises(ParseError, match="unknown character"):
        parse("x = 1 $ 2;")


_AT_LIMIT = MAX_DEPTH - 3   # Program, Seq and the innermost leaf take three levels


@pytest.mark.parametrize("source", [
    "o = " + " + ".join(["h"] * _AT_LIMIT) + ";",
    "o = " + "-" * (_AT_LIMIT - 1) + "h;",
    "if (h) " * (_AT_LIMIT - 1) + "o = h;",
    "while (h > 3) " * (_AT_LIMIT - 1) + "o = h;",
], ids=["chain", "unary", "if", "while"])
def test_program_at_depth_limit_runs_prints_and_composes(source):
    p = parse(source)
    assert max(d for _, d in _walk(p)) == MAX_DEPTH
    cfg = cfg_high()
    _, x = loi(p, cfg)
    text = program_to_source(p)
    assert program_to_source(parse(text)) == text
    composed, composed_cfg = self_compose(p, p, cfg)
    assert loi(composed, composed_cfg)[1] == x
    program_to_source(composed)


def _parse_outcome(source: str, frames: int = 0):
    """``parse(source)``, or its error's text, from ``frames`` calls deeper."""
    if frames:
        return _parse_outcome(source, frames - 1)
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc)


def _parens(k: int) -> str:
    return "o = " + "(" * k + "h" + ")" * k + ";"


def _braces(k: int, inner: str = "o = h;") -> str:
    return "{" * k + inner + "}" * k


def _ifs(k: int, inner: str = "o = h;") -> str:
    return "if (h) " * k + inner


# A parenthesis costs the parser three frames; a brace, an if, while or else
# body, a unary operator and a pending right operand one each; the open ones
# may hold 600.  Each source is accepted (True) or rejected by that bound.
_NESTED = {
    "200 parentheses": (_parens(200), True),
    "201 parentheses": (_parens(201), False),
    "250 parentheses": (_parens(250), False),
    "3000 parentheses": (_parens(3000), False),
    "600 braces": (_braces(600), True),
    "601 braces": (_braces(601), False),
    "3000 braces": (_braces(3000), False),
    "300 braces round 100 parentheses": (_braces(300, _parens(100)), True),
    "300 braces round 101 parentheses": (_braces(300, _parens(101)), False),
    "200 ifs round 100 parentheses": (_ifs(200, _parens(100)), True),
    "290 ifs round 200 parentheses": (_ifs(290, _parens(200)), False),
    "1000 ifs": (_ifs(1000), False),
    "601 whiles": ("while (h) " * 601 + "o = h;", False),
    "700 else bodies": ("if (h) o = 0; else " * 700 + "o = h;", False),
    "1000 unary operators": ("o = " + "-" * 1000 + "h;", False),
    "150 right operands in parentheses": ("o = " + "h + (" * 150 + "h" + ")" * 150 + ";", True),
    "151 right operands in parentheses": ("o = " + "h + (" * 151 + "h" + ")" * 151 + ";", False),
    "a precedence ladder in parentheses": (
        "o = " + "h || h && h | h ^ h & h == h < h << h + h * (" * 60 + "h" + ")" * 60 + ";",
        False),
}


@pytest.mark.parametrize("name", list(_NESTED))
def test_nesting_bound_does_not_depend_on_the_callers_stack(name):
    source, accepted = _NESTED[name]
    at_top = _parse_outcome(source)
    assert _parse_outcome(source, 300) == at_top
    if accepted:
        assert isinstance(at_top, Program)
    else:
        assert "nest too deep: at most 200 parentheses or 600 braces" in at_top


def test_census_walks_every_node():
    p = parse("if (a < b) { while (c) d = e + -f; } else g = !h;")
    assert read_vars(p) == {"a", "b", "c", "e", "f", "h"}
    assert assigned_vars(p) == {"d", "g"}
    chain = parse("o = " + "+".join(f"v{i}" for i in range(_AT_LIMIT)) + ";")
    assert len(read_vars(chain)) == _AT_LIMIT
    with pytest.raises(TypeError, match="not an AST node"):
        read_vars("h")


def test_missing_semicolon():
    with pytest.raises(ParseError, match=";"):
        parse("x = 1")
    # End of input after a trailing comment is placed past the comment.
    with pytest.raises(ParseError, match="^1:11: expected ';'"):
        parse("o = 1 // c")


# The language's characters, non-ASCII letters and digits that
# ``str.isalpha``/``isdigit`` classify unlike ASCII, and more often pieces
# of statements, so that some sources parse.
_PIECES = st.sampled_from(["o = h;", "o = 0x1F ^ -h;", "l = (h < 3) * l;", "if (h) ",
                           "else ", "while (l > 9) ", "{ ", "} ", "skip;", "// c\n", "\n"])
_SOURCES = st.lists(st.one_of(
    st.sampled_from(list("hlo_0179 \t\r\n+-*/%&|^~!<>=(){};") + list("é²½Ⅷ١")),
    _PIECES, _PIECES, _PIECES), max_size=30).map("".join)


def _offset(source: str, line: int, col: int) -> int:
    return sum(len(text) + 1 for text in source.split("\n")[:line - 1]) + col - 1


@settings(max_examples=400)
@given(_SOURCES)
def test_tokens_point_at_their_text_and_programs_print_back(source):
    try:
        toks = lang._tokenize(source)
    except ParseError as e:
        assert _offset(source, e.line, e.col) < len(source)
    else:
        offsets = [_offset(source, t.line, t.col) for t in toks]
        for tok, at in zip(toks, offsets):
            assert source[at:at + len(tok.text)] == tok.text or tok.kind == "eof"
        assert offsets[-1] == len(source)
        assert offsets == sorted(set(offsets))
    try:
        p = parse(source)
    except ParseError:
        return
    assert parse(program_to_source(p)) == p


# ---------------------------------------------------------------------------
# Source round trip

_names = st.sampled_from(["h", "l", "o"])
_exprs = st.recursive(
    st.one_of(
        st.integers(0, 300).map(IntLit),
        st.booleans().map(BoolLit),
        _names.map(Var),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["!", "-", "~"]), sub).map(lambda t: Unary(*t)),
        st.tuples(
            st.sampled_from(["||", "&&", "|", "^", "&", "==", "!=", "<", "<=",
                             ">", ">=", "<<", ">>", "+", "-", "*", "/", "%"]),
            sub, sub).map(lambda t: Binary(*t)),
    ),
    max_leaves=25,
)


@given(_exprs)
def test_expression_printing_round_trips(e):
    src = f"o = {expr_to_source(e)};"
    assert parse(src) == Program(Seq((Assign("o", e),)))


_stmts = st.recursive(
    st.one_of(
        st.just(Skip()),
        st.tuples(_names, _exprs).map(lambda t: Assign(*t)),
    ),
    lambda sub: st.one_of(
        st.tuples(_exprs, sub, sub).map(lambda t: If(*t)),
        st.tuples(_exprs, sub).map(lambda t: While(*t)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ss: Seq(tuple(ss))),
    ),
    max_leaves=8,
)


def _flatten(s):
    if isinstance(s, Seq):
        out = []
        for sub in s.stmts:
            flat = _flatten(sub)
            out.extend(flat.stmts) if isinstance(flat, Seq) else out.append(flat)
        if not out:
            return Skip()
        return out[0] if len(out) == 1 else Seq(tuple(out))
    if isinstance(s, If):
        return If(s.cond, _flatten(s.then_branch), _flatten(s.else_branch))
    if isinstance(s, While):
        return While(s.cond, _flatten(s.body))
    return s


@given(_stmts)
def test_statement_printing_round_trips(s):
    # printing loses only syntactic Seq nesting, which the parser also
    # flattens; normalize the same way (top level is always a Seq)
    flat = _flatten(s)
    p = Program(flat if isinstance(flat, Seq) else Seq((flat,)))
    assert parse(program_to_source(p)) == p


def test_program_printing_round_trips():
    src = """
    l = 0;
    while (l < h) {
      if (h == 2) l = 3; else l = l + 1;
    }
    skip;
    if (l >= 2) o = l;
    """
    p = parse(src)
    assert parse(program_to_source(p)) == p


def test_literals_past_the_digit_limit_print_as_hex_and_round_trip():
    # Neither literal has decimal text under the int-string digit limit.
    p = parse("o = 0x" + "f" * 5000 + ";")
    assert parse(program_to_source(p)) == p
    composed, _ = self_compose(parse("h = h + 1; o = h;"), parse("h = h + 1; o = h;"),
                               cfg_high(20000))
    assert IntLit((1 << 20000) - 1) in [n for n, _ in _walk(composed)]
    assert parse(program_to_source(composed)) == composed


# ---------------------------------------------------------------------------
# Evaluation

def test_loop_run_values():
    p = parse("l=0; while (l < h) { if (h==2) l=3; else l=l+1; }")
    cfg = cfg_high(observe=("l",))
    assert eval_program(p, {"h": 2}, cfg) == Observable(TERMINATED, (3,))
    assert eval_program(p, {"h": 0}, cfg) == Observable(TERMINATED, (0,))
    assert eval_program(p, {"h": 3}, cfg) == Observable(TERMINATED, (3,))


def test_vacuous_loop_never_terminates():
    p = parse("while (1==1) skip;")
    for budget in (10, 100000):
        cfg = cfg_high(observe=("h",), step_budget=budget)
        assert eval_program(p, {"h": 0}, cfg) == Observable(NON_TERMINATION)


def test_division_and_modulo_by_zero_fault():
    cfg = cfg_high(observe=("x",))
    assert eval_program(parse("x = 1/0;"), {"h": 0}, cfg) == Observable(RUNTIME_ERROR)
    assert eval_program(parse("x = 1%0;"), {"h": 0}, cfg) == Observable(RUNTIME_ERROR)
    assert eval_program(parse("x = h / 2;"), {"h": 3}, cfg) == Observable(TERMINATED, (1,))


def test_negative_shift_faults():
    cfg = cfg_high(observe=("x",))
    assert eval_program(parse("x = 1 << (0-1);"), {"h": 0}, cfg) == Observable(RUNTIME_ERROR)


def test_shift_count_limits():
    cfg = cfg_high(observe=("x",))
    assert eval_program(parse("x = 1 << (1 << 21);"), {"h": 0}, cfg) == Observable(RUNTIME_ERROR)
    # a right shift past the limit is clamped to it, not a fault
    assert eval_program(parse("x = h >> (1 << 21);"), {"h": 3}, cfg) == Observable(TERMINATED, (0,))
    assert eval_program(parse("x = (0 - h) >> (1 << 21);"), {"h": 3}, cfg) == \
        Observable(TERMINATED, (-1,))


def test_operator_table_covers_the_grammar():
    assert set(_BINARY_TEMPLATES) == {op for level in _BINARY_LEVELS for op in level}
    assert set(_UNARY_TEMPLATES) == {"!", "-", "~"}


_stores = st.fixed_dictionaries({n: st.integers(-300, 300) for n in ("h", "l", "o")})


@settings(deadline=None, max_examples=400)
@given(_exprs, st.lists(_stores, min_size=1, max_size=6))
def test_operator_table_matches_reference(e, stores):
    # One batch runs every store: atoms that fault sit beside ones that do not.
    columns = {n: [store[n] for store in stores] for n in ("h", "l", "o")}
    got = _as_reference(*_run_columns(Program(Seq((Assign("o", e),))), columns, len(stores),
                                      cfg_high()))
    for store, (obs, _) in zip(stores, got):
        try:
            want = Observable(TERMINATED, (eval_expr_reference(e, store),))
        except _Fault:
            want = Observable(RUNTIME_ERROR)
        assert obs == want


def test_assignment_wraps_at_declared_width():
    p = parse("l = l + 1; o = l;")
    cfg = AttackerConfig(high_vars=(("h", 1),), low_vars=(("l", 2, 3),),
                         observed_vars=("o",))
    assert eval_program(p, {"h": 0, "l": 3}, cfg) == Observable(TERMINATED, (0,))


def test_undeclared_variables_do_not_wrap():
    p = parse("x = 0 - 1; o = x < 0;")
    cfg = cfg_high(observe=("o", "x"))
    assert eval_program(p, {"h": 0}, cfg) == Observable(TERMINATED, (1, -1))


def test_booleans_are_ints():
    p = parse("o = (h == 1) + true;")
    cfg = cfg_high()
    assert eval_program(p, {"h": 1}, cfg) == Observable(TERMINATED, (2,))
    assert eval_program(p, {"h": 2}, cfg) == Observable(TERMINATED, (1,))


def test_unbound_read_is_a_config_error():
    with pytest.raises(ConfigError, match="'y'"):
        eval_program(parse("x = y;"), {"h": 0}, cfg_high(observe=("x",)))


def test_observed_var_unassigned_on_some_path():
    p = parse("if (h == 0) o = 1;")
    cfg = cfg_high()
    assert eval_program(p, {"h": 0}, cfg) == Observable(TERMINATED, (1,))
    assert eval_program(p, {"h": 2}, cfg) == Observable(TERMINATED, (None,))


def test_loop_iteration_counting():
    from loiqif.lang import run_counting_loop

    p = parse("l=0; while (l < h) { if (h==2) l=3; else l=l+1; }")
    cfg = cfg_high(observe=("l",))
    loop = p.body.stmts[1]
    assert run_counting_loop(p, {"h": 0}, cfg, loop) == (Observable(TERMINATED, (0,)), 0)
    assert run_counting_loop(p, {"h": 2}, cfg, loop) == (Observable(TERMINATED, (3,)), 1)
    assert run_counting_loop(p, {"h": 3}, cfg, loop) == (Observable(TERMINATED, (3,)), 3)
    spin = parse("while (1 == 1) skip;")
    spin_loop = spin.body.stmts[0]
    obs, iters = run_counting_loop(spin, {"h": 0}, replace(cfg, step_budget=50), spin_loop)
    assert obs == Observable(NON_TERMINATION) and iters is None


def test_evaluation_is_deterministic():
    p = parse("o = h * 17 & 0x3c ^ h;")
    cfg = cfg_high(bits=4)
    runs = {eval_program(p, {"h": 11}, cfg) for _ in range(5)}
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# loi

def test_loi_of_branching_program():
    _, x = loi(parse("if (h==0) x=0; else x=1;"), cfg_high(observe=("x",)))
    assert x.blocks == ((0,), (1, 2, 3))


def test_loi_of_copy_is_top():
    d, x = loi(parse("o = h;"), cfg_high())
    assert x == top(d)


def test_loi_of_constant_is_bottom():
    d, x = loi(parse("o = 42;"), cfg_high())
    assert x == bottom(d)


def test_loi_passive_password():
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    d, x = loi(parse("if (h == l) o = 1; else o = 2;"), cfg)
    assert d.size == 16
    assert block_count(x) == 8
    singles = [b for b in x.blocks if len(b) == 1]
    triples = [b for b in x.blocks if len(b) == 3]
    assert len(singles) == 4 and len(triples) == 4
    assert ((0, 0),) in x.blocks
    assert ((0, 1), (0, 2), (0, 3)) in x.blocks


def test_loi_kernel_soundness_by_reevaluation():
    p = parse("if (h == l) o = 1; else o = 2;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    d, x = loi(p, cfg)
    views = {(l, h): (l, eval_program(p, {"l": l, "h": h}, cfg)) for l, h in d.atoms}
    for block in x.blocks:
        assert len({views[a] for a in block}) == 1
    block_views = [views[b[0]] for b in x.blocks]
    assert len(set(block_views)) == len(block_views)


# (config, the store of an atom, whether the attacker also sees the low
# part) for each shape of atom.
_HAND_BUILT_STORES = {
    "active, one high": (
        AttackerConfig(high_vars=(("h", 3),), observed_vars=("o",)),
        lambda h: {"h": h}, False),
    "active, two highs and a pinned low": (
        AttackerConfig(high_vars=(("h", 2), ("g", 2)), low_vars=(("l", 2, 2),),
                       observed_vars=("o",)),
        lambda a: {"h": a[0], "g": a[1], "l": 2}, False),
    "passive, one low and one high": (
        AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, None),),
                       observed_vars=("o",), mode=PASSIVE),
        lambda a: {"l": a[0], "h": a[1]}, True),
    "passive, two lows (one pinned) and two highs": (
        AttackerConfig(high_vars=(("h", 2), ("g", 1)),
                       low_vars=(("l", 2, None), ("k", 2, 3)),
                       observed_vars=("o",), mode=PASSIVE),
        lambda a: {"l": a[0][0], "k": a[0][1], "h": a[1][0], "g": a[1][1]}, True),
    "passive, no lows": (
        AttackerConfig(high_vars=(("h", 3),), observed_vars=("o",), mode=PASSIVE),
        lambda h: {"h": h}, False),
}


@pytest.mark.parametrize("name", list(_HAND_BUILT_STORES))
def test_loi_is_the_kernel_of_runs_on_hand_built_stores(name):
    cfg, store, sees_lows = _HAND_BUILT_STORES[name]
    # Reads every variable, with a different weight each, so a value that
    # lands in the wrong variable changes the partition.
    terms = " + ".join(f"{v} * {m}" for v, m in zip(sorted(cfg.widths()), (1, 2, 3, 5)))
    p = parse(f"o = ({terms}) % 4;")
    d, x = loi(p, cfg)
    views = {}
    for a in d.atoms:
        obs = eval_program(p, store(a), cfg)
        views[a] = (a[0], obs) if sees_lows else obs
    assert x == kernel(d, views)
    assert 1 < block_count(x) < d.size


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loi_holds_no_view_per_atom():
    # 2^14 atoms and 256 distinct views: relabeling the views as they are
    # yielded keeps only the distinct ones, so loi needs the labels tuple
    # and the run of one chunk, about 0.35 MB; a list of every atom's view
    # traces 0.9 MB and a map from every atom to its view 2 MB.
    p = parse("o = h & 255;")
    one_chunk = _traced_peak(lambda: loi(p, cfg_high(bits=CHUNK_SIZE.bit_length() - 1)))
    labels = sys.getsizeof(tuple(range(1 << 14)))
    assert _traced_peak(lambda: loi(p, cfg_high(bits=14))) <= 2 * labels + one_chunk


def test_enumerated_domain_holds_no_atom():
    # 2^16 atoms as a range, as a product of highs, and as passive
    # (low, high) pairs: the domain stores value ranges, never the atoms
    # (a tuple of them and a position dict take several MB).
    for cfg in (cfg_high(bits=16),
                AttackerConfig(high_vars=(("a", 8), ("b", 8)), observed_vars=("o",)),
                AttackerConfig(high_vars=(("h", 12),), low_vars=(("l", 4, None), ("m", 3, 5)),
                               observed_vars=("o",), mode=PASSIVE)):
        assert enumerate_domain(cfg).size == 1 << 16
        assert _traced_peak(lambda: enumerate_domain(cfg)) < 64 * 1024


def test_loi_octal_mask_shape():
    d, x = loi(parse("o = h & 037;"), cfg_high(bits=8))
    assert block_count(x) == 32
    assert all(len(b) == 8 for b in x.blocks)
    assert x == kernel(d, {h: h & 31 for h in range(256)})


def test_budget_monotonicity_splits_only_the_diverging_block():
    p = parse("o = 0; while (o < h) o = o + 1;")
    cfg = cfg_high(bits=3)
    lo = AttackerConfig(cfg.high_vars, cfg.low_vars, cfg.observed_vars,
                        cfg.mode, step_budget=8)
    hi = AttackerConfig(cfg.high_vars, cfg.low_vars, cfg.observed_vars,
                        cfg.mode, step_budget=10_000)
    d, x_lo = loi(p, lo)
    _, x_hi = loi(p, hi)
    assert leq(x_lo, x_hi)
    diverged_lo = {a for a in d.atoms
                   if eval_program(p, {"h": a}, lo).kind == NON_TERMINATION}
    for block in x_lo.blocks:
        if not set(block) & diverged_lo:
            assert block in x_hi.blocks   # resolved blocks never change


def test_multiple_high_variables_enumerate_tuples():
    cfg = AttackerConfig(high_vars=(("a", 1), ("b", 1)), observed_vars=("o",))
    d, x = loi(parse("o = a & b;"), cfg)
    assert tuple(d.atoms) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert x.blocks == (((0, 0), (0, 1), (1, 0)), ((1, 1),))


def test_loi_rejects_unknown_reads_and_observations():
    with pytest.raises(ConfigError, match="'secret'"):
        loi(parse("o = secret;"), cfg_high())
    with pytest.raises(ConfigError, match="observed variable 'zz'"):
        loi(parse("o = h;"), cfg_high(observe=("zz",)))


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        loi(parse("o = h;"), cfg_high(bits=24))
    small_cap = AttackerConfig(high_vars=(("h", 8),), observed_vars=("o",),
                               enumeration_cap=100)
    with pytest.raises(EnumerationCapError):
        loi(parse("o = h;"), small_cap)


# ---------------------------------------------------------------------------
# leakage

def test_leakage_of_one_bit_reveal():
    p = parse("if (h==1) o=0; else o=1;")
    cfg = cfg_high()
    d = enumerate_domain(cfg)
    assert leakage(p, cfg, Distribution.uniform(d)) == pytest.approx(0.8113, abs=1e-3)


def test_leakage_of_high_independent_program_is_zero():
    p = parse("o = 3 * 4;")
    cfg = cfg_high()
    d = enumerate_domain(cfg)
    assert leakage(p, cfg, Distribution.uniform(d)) == 0.0


def test_passive_leakage_matches_exact_oracle():
    p = parse("if (h == l) o = 1; else o = 2;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                         observed_vars=("o",), mode=PASSIVE)
    d, x = loi(p, cfg)
    mu = Distribution.uniform(d)
    got = leakage(p, cfg, mu)
    low = low_projection(d, cfg)
    assert got == pytest.approx(entropy_oracle(x, mu) - entropy_oracle(low, mu), abs=1e-9)
    assert got == pytest.approx(conditional_entropy_oracle(x, low, mu), abs=1e-9)
    assert got == pytest.approx(0.8113, abs=1e-3)


def test_leakage_never_exceeds_capacity():
    rng = random.Random(3)
    for src, cfg in [
        ("if (h==1) o=0; else o=1;", cfg_high()),
        ("o = h & 3;", cfg_high(bits=3)),
        ("o = h % 5;", cfg_high(bits=3)),
    ]:
        p = parse(src)
        d, x = loi(p, cfg)
        cap = channel_capacity(x)
        for _ in range(10):
            mu = Distribution.random(d, rng)
            assert leakage(p, cfg, mu) <= cap + 1e-9


def test_leakage_domain_mismatch():
    p = parse("o = h;")
    with pytest.raises(DomainMismatchError):
        leakage(p, cfg_high(), Distribution.uniform(Domain(range(3))))


# ---------------------------------------------------------------------------
# AttackerConfig

def test_config_json_round_trip():
    obj = {"high": [{"name": "h", "bits": 2}],
           "low": [{"name": "l", "bits": 2, "value": 1}],
           "observe": ["o"], "mode": "active", "budget": 5000}
    cfg = config_from_json(obj)
    assert cfg.high_vars == (("h", 2),)
    assert cfg.low_vars == (("l", 2, 1),)
    assert cfg.step_budget == 5000


def test_config_defaults_observe_to_lows():
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, 0),))
    assert cfg.observed_vars == ("l",)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="fixed value"):
        AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                       observed_vars=("o",), mode=ACTIVE)
    with pytest.raises(ConfigError, match="exceeds 2 bit"):
        AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, 4),),
                       observed_vars=("o",))
    with pytest.raises(ConfigError, match="declared twice"):
        AttackerConfig(high_vars=(("h", 2), ("h", 3)), observed_vars=("o",))
    with pytest.raises(ConfigError, match="width"):
        AttackerConfig(high_vars=(("h", 0),), observed_vars=("o",))
    with pytest.raises(ConfigError, match="mode"):
        AttackerConfig(high_vars=(("h", 2),), observed_vars=("o",), mode="sneaky")


@pytest.mark.parametrize("name", [None, 7])
def test_config_rejects_non_string_names(name):
    # Turned into a string, such a name would declare a variable 'None' or '7'.
    with pytest.raises(ConfigError, match=f"variable name must be a string, got {name!r}"):
        AttackerConfig(high_vars=((name, 2),), observed_vars=("o",))
    with pytest.raises(ConfigError, match=f"variable name must be a string, got {name!r}"):
        AttackerConfig(high_vars=(("h", 2),), low_vars=((name, 2, 1),), observed_vars=("o",))


@pytest.mark.parametrize("value", [2.7, "3", True])
def test_config_rejects_non_integer_widths_values_and_bounds(value):
    # Turned into an int, 2.7 would declare a 2-bit variable and "3" a 3-bit one.
    def config(high=2, low=2, pinned=1, budget=100, cap=64):
        return AttackerConfig(high_vars=(("h", high),), low_vars=(("l", low, pinned),),
                              observed_vars=("o",), step_budget=budget, enumeration_cap=cap)

    config()
    for field, what in [("high", "bits of 'h'"), ("low", "bits of 'l'"),
                        ("pinned", "value of 'l'"), ("budget", "budget"), ("cap", "cap")]:
        with pytest.raises(ConfigError) as err:
            config(**{field: value})
        assert str(err.value) == f"{what} must be an integer, got {value!r}"


def test_config_rejects_a_bare_string_or_a_non_string_observed_name():
    # A bare "ab" would observe the variables a and b.
    with pytest.raises(ConfigError) as err:
        AttackerConfig(high_vars=(("h", 2),), observed_vars="ab")
    assert str(err.value) == "observed variables must be a sequence of names, got 'ab'"
    for observed in [(7,), ("o", None), (("o",),)]:
        with pytest.raises(ConfigError) as err:
            AttackerConfig(high_vars=(("h", 2),), observed_vars=observed)
        bad = next(n for n in observed if not isinstance(n, str))
        assert str(err.value) == f"observed variable name must be a string, got {bad!r}"
    assert AttackerConfig(high_vars=(("h", 2),), observed_vars=["o", "p"]).observed_vars == ("o", "p")
    assert AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 1, 0),)).observed_vars == ("l",)


def test_config_rejects_malformed_fields_and_declarations():
    cases = [
        ({"high_vars": 7}, "high variables must be a sequence of declarations, got 7"),
        ({"high_vars": ("h", 2)}, "a high variable must be (name, bits), got 'h'"),
        ({"high_vars": (("h",),)}, "a high variable must be (name, bits), got ('h',)"),
        ({"high_vars": (("h", 2, 0),)}, "a high variable must be (name, bits), got ('h', 2, 0)"),
        ({"low_vars": 7}, "low variables must be a sequence of declarations, got 7"),
        ({"low_vars": (("l", 2),)}, "a low variable must be (name, bits, value), got ('l', 2)"),
        ({"observed_vars": 7}, "observed variables must be a sequence of names, got 7"),
        ({"observed_vars": {"o": 1}},
         "observed variables must be a sequence of names, got {'o': 1}"),
    ]
    for fields, message in cases:
        with pytest.raises(ConfigError) as err:
            AttackerConfig(**{"high_vars": (("h", 2),), "observed_vars": ("o",), **fields})
        assert str(err.value) == message
    cfg = AttackerConfig(high_vars=[["h", 2]], low_vars=[["l", 1, 0]], observed_vars=["o"])
    assert cfg.high_vars == (("h", 2),)
    assert (cfg.low_vars, cfg.observed_vars) == ((("l", 1, 0),), ("o",))


def test_passive_fixed_low_pins_enumeration():
    cfg = AttackerConfig(high_vars=(("h", 1),), low_vars=(("l", 2, 2),),
                         observed_vars=("o",), mode=PASSIVE)
    d = enumerate_domain(cfg)
    assert tuple(d.atoms) == ((2, 0), (2, 1))


# One configuration per shape of enumerated atom.  Each enumerated domain
# must behave exactly as the tuple-backed domain of the same atoms.
_ATOM_SHAPES = {
    "one high": cfg_high(bits=3),
    "two highs": AttackerConfig(high_vars=(("a", 2), ("b", 1)), observed_vars=("o",)),
    "passive": AttackerConfig(high_vars=(("h", 1), ("g", 2)),
                              low_vars=(("l", 1, None), ("m", 1, None)),
                              observed_vars=("o",), mode=PASSIVE),
    "passive pinned low": AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, 3),),
                                         observed_vars=("o",), mode=PASSIVE),
    "active pinned lows": AttackerConfig(high_vars=(("h", 1), ("g", 2)),
                                         low_vars=(("l", 2, 1), ("m", 1, 0)),
                                         observed_vars=("o",)),
}


def _reference_atoms(cfg: AttackerConfig) -> list:
    """The atoms in lexicographic value order, built one by one."""
    def collapse(values):
        return values[0] if len(values) == 1 else values
    highs = list(itertools.product(*(range(1 << b) for _, b in cfg.high_vars)))
    if cfg.mode != PASSIVE or not cfg.low_vars:
        return [collapse(h) for h in highs]
    lows = itertools.product(*(range(1 << b) if v is None else (v,) for _, b, v in cfg.low_vars))
    return [(collapse(lo), collapse(h)) for lo in lows for h in highs]


def _as_floats(atom):
    return tuple(map(_as_floats, atom)) if isinstance(atom, tuple) else float(atom)


def _wrong_arity(atom) -> list:
    if not isinstance(atom, tuple):
        return [(atom, 0)]
    out = [atom + (0,), atom[:-1]]
    if isinstance(atom[-1], tuple):
        out.append(atom[:-1] + (atom[-1] + (0,),))
    return out


@pytest.mark.parametrize("shape", _ATOM_SHAPES)
def test_enumerated_domain_matches_tuple_domain(shape):
    d = enumerate_domain(_ATOM_SHAPES[shape])
    ref = Domain(_reference_atoms(_ATOM_SHAPES[shape]))
    n = ref.size
    assert list(d.atoms) == list(ref.atoms)
    assert len(d.atoms) == d.size == n
    for i in range(-n, n):
        assert d.atoms[i] == ref.atoms[i]
    for i in (n, -n - 1, 2 * n):
        with pytest.raises(IndexError):
            d.atoms[i]
    for s in (slice(None), slice(1, -1), slice(None, None, -3), slice(n, n + 2), slice(-3, None, 2)):
        assert tuple(d.atoms[s]) == ref.atoms[s]
    for i, a in enumerate(ref.atoms):
        assert a in d
        assert d.position(a) == i
        # A value equal to the atom, such as 1.0 for 1, finds it, as in a dict.
        assert d.position(_as_floats(a)) == ref.position(_as_floats(a)) == i
    for x in (True, False, 1.0):    # the ints they equal in a one-high domain
        assert (x in d) == (x in ref)
        if x in ref:
            assert d.position(x) == ref.position(x)
    foreign = [-1, n, "a", [1], {}, (0,), *_wrong_arity(ref.atoms[-1])]
    for x in foreign:
        assert x not in d and x not in ref
        for domain in (d, ref):
            with pytest.raises(InvalidPartitionError):
                domain.position(x)
    assert d == ref and ref == d and hash(d) == hash(ref)
    for cfg in _ATOM_SHAPES.values():   # "two highs" and "active pinned lows" differ in content only
        other = enumerate_domain(cfg)
        assert (d == other) == (list(d.atoms) == list(other.atoms)) == (cfg is _ATOM_SHAPES[shape])
    assert d != Domain(ref.atoms[::-1]) and Domain(ref.atoms[::-1]) != d
    assert d != Domain(ref.atoms[:-1]) and d != Domain(ref.atoms[:-1] + (n,))


# ---------------------------------------------------------------------------
# Batch evaluation against the one-atom-at-a-time reference

# Every configuration declares h, g and l, and together they cover each
# shape of atom: high tuples with pinned lows, bare highs with two pinned
# lows, and (low, high) pairs with a tuple on either side.  The last one
# enumerates x as a second low around the pinned o, so the low index of an
# atom steps over a mixed radix with a pinned digit in the middle.
_BATCH_CONFIGS = [
    AttackerConfig(high_vars=(("h", 2), ("g", 1)), low_vars=(("l", 2, 2),),
                   observed_vars=("o", "x")),
    AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, 1), ("g", 1, 1)),
                   observed_vars=("o", "x")),
    AttackerConfig(high_vars=(("h", 2), ("g", 1)), low_vars=(("l", 2, None),),
                   observed_vars=("o", "x"), mode=PASSIVE),
    AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 1, None), ("g", 1, 1)),
                   observed_vars=("o", "x"), mode=PASSIVE),
    AttackerConfig(high_vars=(("h", 2), ("g", 1)),
                   low_vars=(("l", 2, None), ("o", 2, 3), ("x", 1, None)),
                   observed_vars=("o", "x"), mode=PASSIVE),
]
_batch_names = st.sampled_from(["h", "g", "l", "o", "x"])
# Small literals and extra divisions, so that faults are common.  No "*":
# squaring a variable on every pass of a loop doubles its length each time.
_BATCH_OPS = sorted(set(_BINARY_TEMPLATES) - {"*"}) + ["/", "%"] * 2
_batch_exprs = st.recursive(
    st.one_of(st.integers(0, 4).map(IntLit), st.booleans().map(BoolLit),
              _batch_names.map(Var)),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["!", "-", "~"]), sub).map(lambda t: Unary(*t)),
        st.tuples(st.sampled_from(_BATCH_OPS), sub, sub).map(lambda t: Binary(*t)),
    ),
    max_leaves=5,
)


def _bounded_loops(bodies):
    """Loops that mostly end after a few iterations, each atom after its own
    count: while (x > e) { body; x = x - 1; }."""
    return st.tuples(_batch_exprs, bodies).map(lambda t: While(
        Binary(">", Var("x"), t[0]), Seq((t[1], Assign("x", Binary("-", Var("x"), IntLit(1)))))))


_batch_stmts = st.recursive(
    st.one_of(st.just(Skip()), st.tuples(_batch_names, _batch_exprs).map(lambda t: Assign(*t))),
    lambda sub: st.one_of(
        st.tuples(_batch_exprs, sub, sub).map(lambda t: If(*t)),
        st.tuples(_batch_exprs, sub).map(lambda t: While(*t)),
        _bounded_loops(sub),
        _bounded_loops(sub),
        st.lists(sub, min_size=2, max_size=4).map(lambda ss: Seq(tuple(ss))),
    ),
    max_leaves=8,
)
# The closing assignments keep o and x assigned somewhere, so the program
# passes ``validate_program``; a prelude that assigns them first keeps most
# runs from stopping at a read before assignment.
_ASSIGN_BOTH = (Assign("x", Var("h")), Assign("o", Var("g")))
_batch_programs = st.tuples(
    st.sampled_from([(), (Assign("x", IntLit(0)),), _ASSIGN_BOTH, _ASSIGN_BOTH]),
    st.lists(st.one_of(_batch_stmts, _bounded_loops(_batch_stmts)), min_size=1, max_size=4),
).map(lambda t: Program(Seq(t[0] + tuple(t[1]) + _ASSIGN_BOTH)))


# Zero divisors, negative shift counts and counts past the shift limit,
# where a right shift clamps and a left shift faults.
_column_values = st.sampled_from([-3, -1, 0, 1, 2, 5, _SHIFT_LIMIT, _SHIFT_LIMIT + 1, 1 << 70])


@pytest.mark.parametrize("op, arity", [(op, 2) for op in sorted(_BINARY_TEMPLATES)]
                         + [(op, 1) for op in sorted(_UNARY_TEMPLATES)])
@given(pairs=st.lists(st.tuples(_column_values, _column_values), min_size=1, max_size=6),
       literal=st.sampled_from([None, 0, -1, 1, _SHIFT_LIMIT, _SHIFT_LIMIT + 1, 1 << 70]))
def test_each_operator_matches_the_reference_on_a_mixed_batch(op, arity, pairs, literal):
    # One batch holds atoms that pass the column check beside ones that fail
    # it.  A literal right operand compiles the operator into a kernel, unless
    # it is a zero divisor or a shift count out of range.
    right = Var("l") if literal is None else IntLit(literal)
    e = Binary(op, Var("h"), right) if arity == 2 else Unary(op, Var("h"))
    columns = {"h": [h for h, _ in pairs], "l": [l for _, l in pairs]}
    got = _as_reference(*_run_columns(Program(Seq((Assign("o", e),))), columns, len(pairs),
                                      cfg_high()))
    for (h, l), (obs, _) in zip(pairs, got):
        try:
            want = Observable(TERMINATED, (eval_expr_reference(e, {"h": h, "l": l}),))
        except _Fault:
            want = Observable(RUNTIME_ERROR)
        assert obs == want
        assert all(type(v) is int for v in obs.values)


def _or_config_error(f):
    try:
        return f()
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _as_reference(keys, counts, sees_lows=False) -> list[tuple]:
    """Key and count columns in the shape of ``runs_reference``: per atom an
    (Observable, count) pair.  With ``sees_lows``, each key is a (low part,
    key) pair and its Observable is paired with that low part."""
    def observable(key):
        return Observable(TERMINATED, key) if isinstance(key, tuple) else Observable(key)

    if not sees_lows:
        return [(observable(key), count) for key, count in zip(keys, counts, strict=True)]
    return [((low, observable(key)), count)
            for (low, key), count in zip(keys, counts, strict=True)]


def _runs_as_reference(p, cfg, loop=None) -> list[tuple]:
    """``runs`` read through ``_as_reference``, its columns joined."""
    _, chunks = runs(p, cfg, loop)
    keys, counts = [], []
    for chunk_keys, chunk_counts in chunks:
        keys += chunk_keys
        counts += chunk_counts
    return _as_reference(keys, counts, cfg.mode == PASSIVE and bool(cfg.low_vars))


def _run_columns(p, columns: dict[str, list], size: int, cfg) -> tuple[list, list]:
    """The key and count columns of ``size`` atoms, each input a column."""
    return lang._function(p, tuple(columns), cfg, None, 0)(*columns.values(), size)


def _assert_runs_match_reference(p, cfg, loop):
    got = _or_config_error(lambda: _runs_as_reference(p, cfg, loop))
    want = _or_config_error(lambda: runs_reference(p, cfg, loop))
    assert got == want
    return want


@settings(deadline=None, max_examples=300)
@given(_batch_programs, st.sampled_from(_BATCH_CONFIGS), st.integers(5, 300),
       st.sampled_from([1, 3, 7, 1024]))
def test_batch_runs_match_the_reference(p, cfg, budget, chunk_size):
    cfg = replace(cfg, step_budget=budget)
    top_loop = _find_top_level_loop(p.body)
    loop = top_loop or next((n for n, _ in _walk(p) if isinstance(n, While)), None)
    with mock.patch.object(lang, "CHUNK_SIZE", chunk_size):
        want = _assert_runs_match_reference(p, cfg, loop)
        if isinstance(want, str):
            return
        d, x = loi(p, cfg)
        assert x == relabel(d, [view for view, _ in want])
        if top_loop is not None and top_loop in p.body.stmts:
            analysis = loop_analyze(p, cfg)
            w, chain, collision, result = loop_analysis_reference(
                p, cfg, {a: store_of(cfg, a) for a in d.atoms})
            assert (tuple(analysis.w_partitions), tuple(analysis.w_chain)) == (w, chain)
            assert (analysis.collision, analysis.result) == (collision, result)


@settings(deadline=None, max_examples=150)
@given(_batch_programs, st.sampled_from(_BATCH_CONFIGS), st.integers(5, 300))
def test_local_functions_match_the_reference(p, cfg, budget):
    # Every if and while inside another, and every operator inside another,
    # runs as a local function.
    loop = next((n for n, _ in _walk(p) if isinstance(n, While)), None)
    with mock.patch.object(lang, "_STATEMENT_DEPTH", 1), \
            mock.patch.object(lang, "_EXPRESSION_DEPTH", 1):
        _assert_runs_match_reference(p, replace(cfg, step_budget=budget), loop)


@settings(deadline=None)
@given(_batch_programs, st.sampled_from(_BATCH_CONFIGS), st.integers(5, 300), st.integers(0, 99))
def test_batch_partitions_refine_the_lows_so_leakage_needs_no_join(p, cfg, budget, seed):
    # Faults and runs out of budget included, in both modes.
    check_partition_refines_lows(p, replace(cfg, step_budget=budget), seed)


@pytest.mark.parametrize("source", [
    # branches of different lengths merge with different pending steps
    "if (h & 1) { skip; skip; skip; } else skip; o = h;"
    " while (o > 0) { if (o & 2) { skip; skip; } o = o - 1; }",
    "o = 0; while (o < h) { o = o + 1; if (o == 2) while (o < 4) o = o + 1; }",
    "o = h; if (h < 2) { if (h) o = 1 / 0; else skip; } else while (1) skip;",
    # every atom takes the branch, then none does
    "o = 0; while (o < h) { if (o >= 0) { o = o + 1; skip; } else skip; }",
    "o = 0; while (o < h) { if (o < 0) skip; else { skip; o = o + 1; } }",
])
def test_budget_thresholds_match_the_reference(source):
    p = parse(source)
    loop = next(n for n, _ in _walk(p) if isinstance(n, While))
    for budget in range(1, 40):
        _assert_runs_match_reference(p, cfg_high(bits=3, step_budget=budget), loop)


def test_steps_are_spent_before_evaluating_and_after_every_body():
    cfg = cfg_high()
    # Assign and If spend their step before they evaluate: one step short
    # of the faulting statement runs out of budget instead.
    for source in ("skip; o = 1 / 0;", "skip; if (1 / 0) skip;"):
        p = parse(source)
        one, two = (replace(cfg, step_budget=n) for n in (1, 2))
        assert eval_program(p, {"h": 0}, one) == Observable(NON_TERMINATION)
        assert eval_program(p, {"h": 0}, two) == Observable(RUNTIME_ERROR)
    # One step for o = 0, one on entering the loop, and for each of the h
    # iterations one for the body and one after it: 2 + 2h in all.
    p = parse("o = 0; while (o < h) o = o + 1;")
    for budget in range(1, 10):
        bounded = replace(cfg, step_budget=budget)
        kinds = [obs.kind for obs, _ in
                 _as_reference(*_run_columns(p, {"h": [0, 1, 2, 3]}, 4, bounded))]
        assert kinds == [TERMINATED if 2 + 2 * h <= budget else NON_TERMINATION
                         for h in range(4)]


@pytest.mark.parametrize("op", ["&&", "||"])
def test_the_left_operand_of_and_or_stops_a_run_first(op):
    cfg = cfg_high()
    assert eval_program(parse(f"o = (1 / 0) {op} y;"), {"h": 0}, cfg) == \
        Observable(RUNTIME_ERROR)
    with pytest.raises(ConfigError, match="variable 'y' read before assignment"):
        eval_program(parse(f"o = y {op} (1 / 0);"), {"h": 0}, cfg)
    assert eval_program(parse(f"o = h {op} (1 / h);"), {"h": 0}, cfg) == \
        Observable(RUNTIME_ERROR)
    # In one batch: atom 2 faults before it would read the y it never set.
    p = parse(f"if (h != 2) y = h; o = (1 / (h - 2)) {op} y;")
    truth = all if op == "&&" else any
    want = [Observable(TERMINATED, (int(truth((1 // (h - 2), h))),)) if h != 2
            else Observable(RUNTIME_ERROR) for h in range(4)]
    assert [obs for obs, _ in _runs_as_reference(p, cfg)] == want
    with pytest.raises(ConfigError, match="variable 'y' read before assignment"):
        loi(parse(f"if (h != 2) y = h; o = y {op} (1 / (h - 2));"), cfg)


@pytest.mark.parametrize("source", [
    "o = (h != 0) && (1 / h);",
    "o = (h == 0) || (1 / h);",
    "if (h != 0) y = h; o = (h != 0) && y;",
])
def test_and_or_evaluate_both_operands(source):
    # At h = 0 the left operand decides the value, and the right one faults
    # or reads the y that atom never assigned.
    p, cfg = parse(source), cfg_high()
    want = _or_config_error(lambda: run_counting_loop_reference(p, {"h": 0}, cfg, None)[0])
    assert want in (Observable(RUNTIME_ERROR), "ConfigError: variable 'y' read before assignment")
    assert _or_config_error(lambda: eval_program(p, {"h": 0}, cfg)) == want
    _assert_runs_match_reference(p, cfg, None)


def test_assignment_masks_declared_variables_in_a_batch():
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 3, 5),),
                         observed_vars=("l", "h", "x"))
    p = parse("l = l + h * 2; h = h - 2; x = 0 - h; if (h & 1) l = 0 - 1;")
    assert [obs.values for obs, _ in _runs_as_reference(p, cfg)] == \
        [(5, 2, -2), (7, 3, -3), (1, 0, 0), (7, 1, -1)]


_ZERO, _FAULT = Observable(TERMINATED, (0,)), Observable(RUNTIME_ERROR)


@pytest.mark.parametrize("width, kinds", [
    (_SHIFT_LIMIT, [Observable(TERMINATED, (1,)), _ZERO, _ZERO]),
    (_SHIFT_LIMIT + 1, [_FAULT, _ZERO, _FAULT]),
    (10 ** 30, [_FAULT, _ZERO, _ZERO]),
])
def test_a_wrapped_value_wider_than_the_shift_limit_faults(width, kinds):
    # With w = 2^20 + 1, h = 0 assigns -1, h = 1 assigns 2^w, and h = 2 and
    # h = 3 assign 3 * 2^(w - 1).  Wrapped to ``width`` bits these need all
    # of them, none and w bits; the last two values fit 10^30 bits as they are.
    w = _SHIFT_LIMIT + 1
    p = parse(f"if (h == 0) l = 0 - 1; else if (h == 1) l = (1 << {w - 1}) * 2;"
              f" else l = 3 << {w - 1}; o = l & 1;")
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", width, 0),),
                         observed_vars=("o",))
    got = _assert_runs_match_reference(p, cfg, None)
    assert [obs for obs, _ in got] == kinds + kinds[2:]


def test_loop_counts_keep_a_fault_and_drop_out_of_budget():
    p = parse("x = 0; if (h == 7) while (1) skip;"
              " while (x < 5) { x = x + 1; o = 10 / (h - x); }")
    cfg = cfg_high(bits=3, step_budget=100)
    got = _runs_as_reference(p, cfg, p.body.stmts[2])
    # Atom h in 1..5 faults during iteration h, after h - 1 bodies.
    assert got == ([(Observable(TERMINATED, (-2,)), 5)]
                   + [(Observable(RUNTIME_ERROR), h - 1) for h in range(1, 6)]
                   + [(Observable(TERMINATED, (10,)), 5), (Observable(NON_TERMINATION), None)])


def test_runs_across_a_chunk_boundary_match_the_reference():
    # Faulting and spinning atoms sit on both sides of the first boundary.
    c = lang.CHUNK_SIZE
    p = parse(f"x = 0; if (h == {c - 2} || h == {c + 1}) while (1) skip;"
              " while (x < (h & 3)) x = x + 1;"
              f" o = x + 100 / ((h - {c - 1}) * (h - {c}));")
    cfg = cfg_high(bits=c.bit_length(), step_budget=60)
    got = _assert_runs_match_reference(p, cfg, p.body.stmts[2])
    assert [obs.kind for obs, _ in got[c - 3:c + 3]] == [
        TERMINATED, NON_TERMINATION, RUNTIME_ERROR, RUNTIME_ERROR, NON_TERMINATION,
        TERMINATED]


@pytest.mark.parametrize("chunk_size", [1, 2, 1024])
def test_read_before_assignment_names_the_lowest_atom(chunk_size):
    # Atom 1 reads y before atom 3 reads z, though z comes first in the
    # program: the lowest atom that reads an unassigned variable names it.
    cfg = cfg_high()
    with mock.patch.object(lang, "CHUNK_SIZE", chunk_size):
        for source, name in [("if (h == 3) o = z; if (h == 1) o = y;", "y"),
                             ("if (h == 1) o = z; if (h == 3) o = y;", "z")]:
            with pytest.raises(ConfigError) as err:
                loi(parse(source + " y = 0; z = 0;"), cfg)
            assert str(err.value) == f"variable {name!r} read before assignment"


@pytest.mark.parametrize("cfg, by_low", [
    (_BATCH_CONFIGS[-1], True),
    (AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),),
                    observed_vars=("o",), mode=PASSIVE), True),
    (_BATCH_CONFIGS[0], False),
    (AttackerConfig(high_vars=(("h", 3),), observed_vars=("o",), mode=PASSIVE), False),
])
def test_low_projection_groups_atoms_by_their_low_part(cfg, by_low):
    d = enumerate_domain(cfg)
    want = kernel(d, lambda a: a[0]) if by_low else bottom(d)
    assert low_projection(d, cfg) == want


# ---------------------------------------------------------------------------
# One compiled function per program


def _built_by_runs(p: Program, cfg: AttackerConfig, loop: While | None = None,
                   calls: int = 1) -> list[str]:
    """Check ``calls`` calls of ``runs`` of ``p`` against the reference,
    three atoms a chunk, and return the source of each function they built."""
    built = []
    compile_source = lang._compile

    def spy(source):
        built.append(source)
        return compile_source(source)

    with mock.patch.object(lang, "CHUNK_SIZE", 3), mock.patch.object(lang, "_compile", spy):
        for _ in range(calls):
            _assert_runs_match_reference(p, cfg, loop)
    return built


@pytest.mark.parametrize("source", [
    "o = " + " + ".join(["h"] * 297) + ";",     # the longest sum parse accepts
    "o = 1 / h" + " + h" * 295 + ";",
    "o = " + "-" * 295 + "(1 / h);",
    # a right operand in parentheses holds four parser frames: the most parse accepts
    "o = " + "h + (" * 149 + "1 / h" + ")" * 149 + ";",
], ids=["sum", "faulting sum", "unary chain", "right-nested sum"])
def test_trees_of_any_depth_run_in_one_function(source):
    # Past the README's sum, atom h = 0 faults at the deepest operator, the division.
    p = parse(source)
    assert max(d for _, d in _walk(p.body.stmts[0].expr)) > 2 * _EXPRESSION_DEPTH
    built = _built_by_runs(p, cfg_high(bits=3))
    assert len(built) == 1 and "def f0(" in built[0]


def test_a_literal_past_the_digit_limit_is_a_parameter():
    mask = (1 << 20000) - 1     # self_compose's mask of a 20000-bit variable
    p = parse(f"o = (h + {hex(mask)}) & {hex(mask)};")
    _assert_runs_match_reference(p, cfg_high(bits=3), None)
    assert [function.args for function in p.functions.values()] == [(mask, mask, DEFAULT_BUDGET)]


def test_reads_that_may_be_unset_are_checked_where_they_stand():
    # y is unset on atom 1, which never reads it.
    cfg = cfg_high(bits=2)
    source = "if (h != 1) y = h; if (h != 1) o = (y + 1) * 2; else o = 0;"
    got = _assert_runs_match_reference(parse(source), cfg, None)
    assert [obs.values for obs, _ in got] == [(2,), (0,), (6,), (8,)]
    [source] = _built_by_runs(parse(source), cfg)
    assert source.count("_unset(") == 1
    # Once every path assigns y, no read of it is checked.
    [source] = _built_by_runs(parse("y = 0; if (h != 1) y = h; o = (y + 1) * 2;"), cfg)
    assert "_unset(" not in source
    p = parse("if (h != 1) y = h; o = (y + 1) * 2;")
    assert _assert_runs_match_reference(p, cfg, None) == \
        "ConfigError: variable 'y' read before assignment"


def test_runs_builds_one_function_per_program():
    p = parse("x = h; o = 0; while (x > 0) { x = x - 1; o = (o + 3) & 7; }"
              " while (h > 5) h = h - 1; o = o + 100 / (h - 9);")
    loop = p.body.stmts[2]
    # One function for three chunks of 3, 3 and 2 atoms; none for a second call.
    assert len(_built_by_runs(p, cfg_high(bits=3), loop, calls=2)) == 1
    # Another loop to count, or another configuration, is another function.
    assert len(_built_by_runs(p, cfg_high(bits=3), p.body.stmts[3])) == 1
    assert len(_built_by_runs(p, cfg_high(bits=2), loop)) == 1
    assert len(_built_by_runs(p, cfg_high(bits=3), loop)) == 0


def test_eval_program_called_again_builds_no_source():
    p = parse("o = 0; x = h; while (x > 0) { x = x - 1; o = (o + 3) & 7; }")
    cfg = cfg_high(bits=3)
    assert eval_program(p, {"h": 5}, cfg) == Observable(TERMINATED, (7,))
    with mock.patch.object(lang, "_Writer", None):
        assert eval_program(p, {"h": 6}, cfg) == Observable(TERMINATED, (2,))


@pytest.mark.parametrize("cfg", [
    cfg_high(),
    AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 1, None),), observed_vars=("o",),
                   mode=PASSIVE),
], ids=[ACTIVE, PASSIVE])
def test_steps_are_counted_only_where_a_run_can_pass_the_budget(cfg):
    # Six skip, assignment and if nodes, the missing else a skip; the longest
    # path, an odd h, takes five steps and faults at the fifth, the division.
    source = "o = 0; if (h & 1) { o = h; o = o + 1; } o = 100 / (o - 2);"
    p = parse(source)
    for budget in range(1, 9):
        got = _assert_runs_match_reference(p, replace(cfg, step_budget=budget), None)
        view, _ = got[1]
        obs = view[1] if cfg.mode == PASSIVE else view
        if budget == 4:
            assert obs == Observable(NON_TERMINATION)
        if budget == 5:
            assert obs == Observable(RUNTIME_ERROR)
    [counting] = _built_by_runs(parse(source), replace(cfg, step_budget=5))
    assert "s +=" in counting
    [uncounted] = _built_by_runs(parse(source), replace(cfg, step_budget=6))
    assert re.search(r"\bs\b", uncounted) is None


def test_a_program_ending_in_a_loop_is_not_checked_again_after_it():
    # The popcount loop checks its budget on entry and after each pass.
    built = []
    compile_source = lang._compile
    p = parse("x = h; o = 0; while (x > 0) { o = o + (x & 1); x = x >> 1; }")
    with mock.patch.object(lang, "_compile", lambda source: built.append(source)
                           or compile_source(source)):
        _, part = loi(p, cfg_high(bits=16))
    assert part.n_blocks == 17
    [source] = built
    assert source.count("if s > budget") == 2


def test_runs_and_eval_program_build_functions_of_their_own():
    # The same program, configuration and input names: runs keys each atom
    # with its low part, eval_program does not.
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 1, None),),
                         observed_vars=("o",), mode=PASSIVE)
    p = parse("o = h + l;")
    _, chunks = runs(p, cfg)
    assert next(chunks)[0][:2] == [(0, (0,)), (0, (1,))]
    assert eval_program(p, {"l": 1, "h": 2}, cfg) == Observable(TERMINATED, (3,))


def test_a_passive_key_carries_the_atoms_low_part():
    # Atom h = 1 spins and h = 2 faults; m is pinned, so each low part is (l, 3).
    cfg = AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 1, None), ("m", 2, 3)),
                         observed_vars=("o",), mode=PASSIVE, step_budget=50)
    p = parse("o = 0; while (h == 1) skip; o = l + m + 100 / (h - 2);")
    with mock.patch.object(lang, "CHUNK_SIZE", 3):
        _, chunks = runs(p, cfg)
        keys = [key for chunk_keys, _ in chunks for key in chunk_keys]
    atoms = enumerate_domain(cfg).atoms
    assert [key[0] for key in keys] == [a[0] for a in atoms]
    assert keys == [(low, NON_TERMINATION if h == 1 else RUNTIME_ERROR if h == 2
                     else (low[0] + 3 + 100 // (h - 2),)) for low, h in atoms]


def test_local_functions_close_over_the_enclosing_locals():
    # Every if and while inside another, and every operator two deep, is a
    # local function.  A nested if assigns the o read after it, atom 5 spins
    # in the inner while, and atom 6 faults in the fourth pass of the outer.
    p = parse("o = 0; x = h;"
              " if (h != 7) while (x > 0) {"
              "   x = x - 1;"
              "   if (h != 3) { if (x & 1) o = o + (x & 3) * 2 + 1; }"
              "   if (h == 5) while (x < 9) skip;"
              "   if (h == 6) o = o + 12 / (x - 2);"
              " }"
              " o = o * 3 + h;")
    cfg = cfg_high(bits=3, step_budget=1000)
    outer, inner = [n for n, _ in _walk(p) if isinstance(n, While)]
    sources = []
    with mock.patch.object(lang, "_STATEMENT_DEPTH", 1), \
            mock.patch.object(lang, "_EXPRESSION_DEPTH", 2):
        for loop in (None, outer, inner):
            sources += _built_by_runs(p, cfg, loop)
            for h in range(8):
                assert run_counting_loop(p, {"h": h}, cfg, loop) == \
                    run_counting_loop_reference(p, {"h": h}, cfg, loop)
    want = runs_reference(p, cfg, outer)
    assert want[5] == (Observable(NON_TERMINATION), None)
    assert want[6] == (Observable(RUNTIME_ERROR), 3)
    assert want[4] == (Observable(TERMINATED, (34,)), 4)
    headers = [header for source in sources for header in re.findall(r"def f\d+\(.*?\)", source)]
    assert len(headers) > 3 and all(header.endswith("()") for header in headers)


# ---------------------------------------------------------------------------
# Loops, budgets and nesting against the reference

_LOOP_CONFIGS = [
    AttackerConfig(high_vars=(("h", 3),), low_vars=(("l", 2, 2),), observed_vars=("o",)),
    AttackerConfig(high_vars=(("h", 2),), low_vars=(("l", 2, None),), observed_vars=("o",),
                   mode=PASSIVE),
]


@pytest.mark.parametrize("source", [
    # the counted loop, the steps of its body stopping atoms mid-iteration
    "o = 0; x = h + l; while (x > 0) { x = x - 1; skip; o = (o + 3) & 7; }",
    "o = h; while (o == 0) skip;",
    "o = h; if (h == 2) while (1) skip;",
    # loops in branches
    "o = 0; x = h; if (h & 1) while (x > l) { x = x - 1; o = o + 2; }"
    " else { while (x < 6) x = x + 1; o = x; }",
    # t is first assigned in the loop, on the atoms that enter it
    "x = h; while (x > 1) { t = x & 1; x = x >> 1; } if (h > 1) o = t; else o = 9;",
    "x = h + 1; while (x > 0) { t = x; x = x - 1; } o = t + l;",
    "x = h; while (x > 0) { t = x; x = x - 1; } o = t;",
    # l is declared: its assignment wraps
    "o = 0; while (l < 3) { l = l + 1; o = o + h; }",
    # x / y may fault: atom h = 1 divides by zero, h = 2 spins
    "o = 0; y = h - 1; x = h + 4; while (x > 1) { x = x / y; o = o + 1; }",
    # t is unset where h is even
    "o = 0; if (h & 1) t = h; if (h == 1) while (o < t) o = o + 2;",
    # an if or a while in the body
    "o = 0; x = h; while (x > 0) { x = x - 1; if (x & 1) o = o + 1; }",
    "o = 0; x = h; while (x > 0) { x = x - 1; y = x; while (y > 0) { y = y - 1; o = o + 1; } }",
    # an if in the body writes the declared l, wrapped
    "x = h; while (x > 0) { x = x - 1; if (x & 1) l = l + x; } o = l;",
])
@pytest.mark.parametrize("cfg", _LOOP_CONFIGS, ids=[ACTIVE, PASSIVE])
def test_loops_match_the_reference_at_every_budget(source, cfg):
    p = parse(source)
    loop = next(n for n, _ in _walk(p) if isinstance(n, While))
    for budget in [*range(1, 40), 40, 100]:
        bounded = replace(cfg, step_budget=budget)
        with mock.patch.object(lang, "CHUNK_SIZE", 3):
            _assert_runs_match_reference(p, bounded, loop)
        if loop not in p.body.stmts:
            continue
        want = _or_config_error(lambda: loop_analysis_reference(
            p, bounded, {a: store_of(bounded, a) for a in enumerate_domain(bounded).atoms}))
        if not isinstance(want, str):
            analysis = loop_analyze(p, bounded)
            assert (tuple(analysis.w_partitions), tuple(analysis.w_chain),
                    analysis.collision, analysis.result) == want


def _nested(depth: int, inner: str) -> str:
    """``depth`` statements, each the body of the last: ``while (o < h)``
    at even levels and ``if (h != level)`` at odd ones, around ``inner``."""
    return "".join("while (o < h) " if level % 2 == 0 else f"if (h != {level}) "
                   for level in range(depth)) + inner


@pytest.mark.parametrize("source, cfg", [
    ("x = h; while (x > 0) { x = x - 1; if (x & 1) l = l + x; else l = l ^ 1; } o = l;",
     _LOOP_CONFIGS[0]),
    ("x = h; while (x > 0) { x = x - 1; if (x & 1) l = l + x; else l = l ^ 1; } o = l;",
     _LOOP_CONFIGS[1]),
    # the fault comes after the step that spends the budget
    ("o = 0; while (o < h) o = o + 1; o = 1 / (h - h);", cfg_high(bits=3)),
    ("o = 0; x = h; while (1) { if (x & 1) x = x + 1; else skip; o = 7 / (x - 8); }",
     cfg_high(bits=3)),
    # 25 nested whiles, past CPython's 20 nested blocks
    ("o = 0; " + "while (o < h) " * 25 + "o = o + 1;", cfg_high(bits=3)),
    ("o = 0; " + _nested(25, "{ o = o + 1; skip; }"), cfg_high(bits=3)),
], ids=["if in while writes a declared low", "if in while writes a passive low",
        "fault past the budget", "fault in a loop past the budget", "25 whiles",
        "25 whiles and ifs"])
def test_programs_match_the_reference_at_every_budget(source, cfg):
    p = parse(source)
    loops = [n for n, _ in _walk(p) if isinstance(n, While)]
    for budget in range(1, 80):
        bounded = replace(cfg, step_budget=budget)
        for loop in (None, loops[0], loops[-1]):
            with mock.patch.object(lang, "CHUNK_SIZE", 3):
                _assert_runs_match_reference(p, bounded, loop)


def test_a_fault_after_the_budget_is_spent_is_non_termination():
    # Two steps, two for each of the h passes, then the faulting assignment.
    p = parse("o = 0; while (o < h) o = o + 1; o = 1 / (h - h);")
    for h in range(4):
        steps = 2 + 2 * h + 1
        assert eval_program(p, {"h": h}, cfg_high(step_budget=steps - 1)) == \
            Observable(NON_TERMINATION)
        assert eval_program(p, {"h": h}, cfg_high(step_budget=steps)) == \
            Observable(RUNTIME_ERROR)


def test_a_program_nested_to_the_depth_limit_matches_the_reference():
    p = parse("o = 0; " + _nested(MAX_DEPTH - 5, "o = o + 1;"))
    assert max(d for _, d in _walk(p)) == MAX_DEPTH
    loops = [n for n, _ in _walk(p) if isinstance(n, While)]
    for budget in (5, 300, 2000):
        for loop in (None, loops[0], loops[-1]):
            _assert_runs_match_reference(p, cfg_high(bits=3, step_budget=budget), loop)


def test_a_loop_in_a_local_function_keeps_its_count_through_a_fault():
    # The counted loop lies past _STATEMENT_DEPTH; atom h faults after h - 2 passes.
    p = parse("o = 0; x = h; " + "if (h != 9) " * _STATEMENT_DEPTH
              + "while (x > 0) { x = x - 1; o = 5 / (x - 1); }")
    loop = next(n for n, _ in _walk(p) if isinstance(n, While))
    cfg = cfg_high(bits=3)
    [source] = _built_by_runs(p, cfg, loop)
    assert "def f0(" in source
    assert run_counting_loop(p, {"h": 5}, cfg, loop) == (Observable(RUNTIME_ERROR), 3)
    for budget in (20, 25, 40, 100):
        _assert_runs_match_reference(p, replace(cfg, step_budget=budget), loop)


@pytest.mark.parametrize("source", [
    "o = 0; while (h == 0) skip;",
    "o = 0; while (h == 0) { if (o) skip; }",
])
def test_a_spinning_atom_stops_at_its_budget(source):
    # h = 0 spins for the whole budget.
    p = parse(source)
    for budget in (10 ** 6, 10 ** 6 + 1):
        cfg = cfg_high(step_budget=budget)
        assert [eval_program(p, {"h": h}, cfg) for h in range(4)] == \
            [Observable(NON_TERMINATION)] + [Observable(TERMINATED, (0,))] * 3
        assert loi(p, cfg)[1] == relabel(enumerate_domain(cfg), [0, 1, 1, 1])
