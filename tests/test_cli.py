import contextlib
import io
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loiqif import Distribution, Domain, loi, measures, parse
from loiqif.cli import _SLICE, _distribution_text, _emit_json, main
from loiqif.lang import MAX_DEPTH, AttackerConfig, config_from_json
from loiqif.measures import MAX_DENOMINATOR_BITS, distribution_to_json
from loiqif.ordering import witness_from_json

from helpers import mass_strings

M1_SRC = "if (h == 1) o = 0; else o = 1;\n"
M2_SRC = "o = h;\n"
PASSWORD_SRC = "if (h == l) o = 1; else o = 2;\n"
PASSIVE_LOOP_SRC = "x = h;\no = 0;\nwhile (x > l) { x = x - 1; o = 1 - o; }\n"
LOOP_SRC = "l = 0;\nwhile (l < h) { if (h == 2) l = 3; else l = l + 1; }\n"

CFG_2BIT = {"high": [{"name": "h", "bits": 2}], "low": [],
            "observe": ["o"], "mode": "active"}


@pytest.fixture
def workspace(tmp_path):
    def write(name, content):
        path = tmp_path / name
        if isinstance(content, (dict, list)):
            path.write_text(json.dumps(content))
        else:
            path.write_text(content)
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_human_output(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform")
    assert code == 0 and err == ""
    assert "partition: {{0,2,3},{1}}" in out
    assert "G_1: 1/2" in out
    assert "expected guesses NG: 7/4" in out
    assert "min-entropy leakage ME (bits): 1" in out
    assert "guessing-entropy leakage GE: 3/4" in out
    assert "ME' (bits): 0.415037499" in out
    assert "GE': 5/4" in out
    assert "leakage (bits): 0.811278124" in out
    assert "channel capacity (bits): 1" in out


def test_analyze_json_round_trips_partition(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, _ = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform",
                           "--json")
    assert code == 0
    obj = json.loads(out)
    direct = loi(parse(M1_SRC), AttackerConfig(high_vars=(("h", 2),),
                                               observed_vars=("o",)))[1]
    assert obj["partition"] == {"domain": list(direct.domain.atoms),
                                "blocks": [list(b) for b in direct.blocks]}
    assert obj["measures"]["guess_prob"]["1"] == "1/2"
    assert obj["measures"]["ge_leakage"] == "3/4"
    assert obj["leakage_bits"] == "0.811278124"
    assert obj["warnings"] == []


def test_analyze_output_is_deterministic(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    _, out1, _ = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform", "--json")
    _, out2, _ = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform", "--json")
    assert out1 == out2


def test_analyze_json_and_text_agree(workspace, capsys):
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    _, text, _ = run_cli(capsys, "analyze", m2, "--config", cfg, "--uniform")
    _, raw, _ = run_cli(capsys, "analyze", m2, "--config", cfg, "--uniform", "--json")
    obj = json.loads(raw)
    assert f"entropy H (bits): {obj['measures']['entropy_bits']}" in text
    assert f"expected guesses NG: {obj['measures']['expected_guesses']}" in text
    assert f"ME' (bits): {obj['measures']['me_prime_bits']}" in text


def test_analyze_with_distribution_file(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    mu = Distribution(Domain(range(4)),
                      {0: "1/2", 1: "1/4", 2: "1/8", 3: "1/8"})
    dist = workspace("mu.json", distribution_to_json(mu))
    code, out, _ = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert code == 0
    # block {1} has mass 1/4, block {0,2,3} mass 3/4 with best atom 1/2
    assert "G_1: 3/4" in out


def test_analyze_guesses_flag_extends_report(workspace, capsys):
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    _, out, _ = run_cli(capsys, "analyze", m2, "--config", cfg, "--uniform",
                        "--guesses", "6", "--json")
    assert list(json.loads(out)["measures"]["guess_prob"]) == ["1", "2", "3", "4", "5", "6"]


def test_analyze_constant_program_leaks_nothing(workspace, capsys):
    flat = workspace("flat.wh", "o = 12;\n")
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, _ = run_cli(capsys, "analyze", flat, "--config", cfg, "--uniform",
                           "--json")
    assert code == 0
    m = json.loads(out)["measures"]
    assert m["entropy_bits"] == "0"
    assert m["me_leakage_bits"] == "0"
    assert m["ge_leakage"] == "0"
    assert m["channel_capacity_bits"] == "0"
    # One block: every measure in bits is +0.0, printed "0", never "-0".
    zero = workspace("zero.wh", "o = 0;\n")
    code, out, _ = run_cli(capsys, "analyze", zero, "--config", cfg, "--uniform")
    assert code == 0
    # The first line names the program's path, which may hold "-0"
    # (pytest's first temporary directory is ``pytest-0``); only the
    # printed values are checked.
    lines = out.splitlines()
    assert lines[0] == f"program: {zero}"
    values = [line.partition(": ")[2] for line in lines[1:]]
    assert not [v for v in values if v.startswith("-0")]
    for line in ("leakage (bits): 0", "entropy H (bits): 0", "ME' (bits): 0"):
        assert line in lines


def test_analyze_passive_carries_warning(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 2}],
        "low": [{"name": "l", "bits": 2}],
        "observe": ["o"], "mode": "passive"})
    code, out, _ = run_cli(capsys, "analyze", pw, "--config", cfg, "--uniform",
                           "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["warnings"] and "conditional" in obj["warnings"][0]
    assert obj["leakage_bits"] == "0.811278124"


def test_commands_build_one_statistic_per_partition_and_distribution(
        workspace, capsys, monkeypatch):
    import loiqif.measures as measures

    built = []
    build = measures._Ranked.__init__
    monkeypatch.setattr(measures._Ranked, "__init__",
                        lambda self, x, mu: built.append(x) or build(self, x, mu))
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("passive.json", {
        "high": [{"name": "h", "bits": 2}], "low": [{"name": "l", "bits": 2}],
        "observe": ["o"], "mode": "passive"})
    atoms = [(lo, hi) for lo in range(4) for hi in range(4)]
    dist = workspace("mu.json", {"domain": [list(a) for a in atoms],
                                 "mass": {f"({lo},{hi})": "1/16" for lo, hi in atoms}})
    code, _, _ = run_cli(capsys, "analyze", pw, "--config", cfg, "--dist", dist,
                         "--guesses", "8", "--json")
    # one for the report, one for H(L)
    assert code == 0 and len(built) == 2

    built.clear()
    m1 = workspace("m1.wh", M1_SRC)
    half = workspace("half.wh", "o = h & 2;\n")
    cfg = workspace("cfg.json", CFG_2BIT)
    code, _, _ = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform", "--json")
    # one for the report: an active attacker's L is the one-block bottom,
    # whose H(L) = 0.0 needs no statistic
    assert code == 0 and len(built) == 1

    built.clear()
    code, out, _ = run_cli(capsys, "compare", m1, half, "--config", cfg,
                           "--trials", "20", "--json")
    assert code == 0 and json.loads(out)["relation"] == "incomparable"
    # one per profile, two profiles each: compare verifies its 2 witnesses,
    # then the audit measures 22 samples (the 2 witnesses and 20 trials)
    assert len(built) == 2 * 2 + 2 * 22

    built.clear()
    witness = workspace("w.json", json.loads(out)["witness_xy"])
    code, out, _ = run_cli(capsys, "witness-check", m1, half, "--config", cfg,
                           "--witness", witness)
    assert code == 0 and "NOT" not in out and len(built) == 2


# ---------------------------------------------------------------------------
# compare and witness-check

def test_compare_reports_strict_order(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, _ = run_cli(capsys, "compare", m1, m2, "--config", cfg)
    assert code == 0
    assert "relation: coarser-than" in out
    assert "witness refuting P2 <= P1" in out
    assert "0 violations" in out


def test_compare_output_is_seed_deterministic(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    args = ["compare", m1, m2, "--config", cfg, "--seed", "42", "--json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_compare_same_program_is_equal(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, _ = run_cli(capsys, "compare", m1, m1, "--config", cfg)
    assert code == 0
    assert "relation: equal" in out


def test_compare_json_and_witness_check(workspace, capsys):
    cfg8 = {"high": [{"name": "h", "bits": 8}], "low": [],
            "observe": ["o"], "mode": "active"}
    p1 = workspace("p1.wh", "if (h % 8 == 0) o = h; else o = 1;\n")
    p2 = workspace("p2.wh", "o = h & 037;\n")
    cfg = workspace("cfg8.json", cfg8)
    code, out, _ = run_cli(capsys, "compare", p1, p2, "--config", cfg, "--json",
                           "--trials", "20")
    assert code == 0
    obj = json.loads(out)
    assert obj["relation"] == "incomparable"
    assert obj["witness_yx"]["n"] == 223
    assert obj["audit"]["violations"] == 0
    assert obj["audit"]["x_ahead"] >= 1 and obj["audit"]["y_ahead"] >= 1

    witness = workspace("w.json", obj["witness_yx"])
    code, out, _ = run_cli(capsys, "witness-check", p1, p2, "--config", cfg,
                           "--witness", witness, "--direction", "yx")
    assert code == 0
    assert "verified" in out and "NOT" not in out

    # the same witness does not refute the opposite direction
    code, out, _ = run_cli(capsys, "witness-check", p1, p2, "--config", cfg,
                           "--witness", witness, "--direction", "xy")
    assert code == 0
    assert "NOT verified" in out


@pytest.mark.parametrize("cfg_obj", [
    CFG_2BIT,
    {"high": [{"name": "h", "bits": 2}], "low": [{"name": "l", "bits": 1}],
     "observe": ["o"], "mode": "passive"},
])
def test_witness_check_reads_over_the_programs_domain(workspace, capsys, cfg_obj):
    """A witness from ``compare --json`` lists the program's atoms, so it is
    read over the program's own domain: no second Domain, no key map."""
    m1 = workspace("m1.wh", M1_SRC)
    half = workspace("half.wh", "o = h & 2;\n")
    cfg = workspace("cfg.json", cfg_obj)
    _, out, _ = run_cli(capsys, "compare", m1, half, "--config", cfg, "--trials", "1", "--json")
    obj = json.loads(out)["witness_xy"]
    witness = workspace("w.json", obj)
    with mock.patch.object(measures, "domain_from_json", side_effect=AssertionError), \
            mock.patch.object(measures, "_mass_keys", side_effect=AssertionError):
        result = run_cli(capsys, "witness-check", m1, half, "--config", cfg, "--witness", witness)
    assert result == (0, "witness against P1 <= P2: verified\n", "")

    d, _ = loi(parse(M1_SRC), config_from_json(cfg_obj))
    w = witness_from_json(obj, d)
    assert w.distribution.domain is d
    assert w == witness_from_json(obj)


def _distribution_text_reference(mu):
    """The witness text as a Fraction per atom gave it."""
    support = [(a, m) for a, m in mu.items() if m > 0]
    if len(support) <= 16:
        return "{" + ", ".join(f"{a}: {m}" for a, m in support) + "}"
    return f"<{len(support)} atoms with positive mass>"


@given(st.sampled_from([Domain(range(300)), Domain.product((range(3), range(100))),
                        Domain([f"s{i}" for i in range(300)])]),
       st.sampled_from([0, 1, 16, 17, 299, 300]), st.integers(0, 2**32))
def test_distribution_text_is_the_fraction_per_atom_text(domain, positive, seed):
    # No reader builds a distribution with no positive atom; one is made
    # directly here to pin the text's edge.
    rng = random.Random(seed)
    weights = [0] * domain.size
    for i in rng.sample(range(domain.size), positive):
        weights[i] = rng.randint(1, 1000)
    mu = (Distribution.from_weights(domain, weights) if positive
          else Distribution._checked(domain, weights, 1))
    assert _distribution_text(mu) == _distribution_text_reference(mu)


# ---------------------------------------------------------------------------
# multirun

def test_multirun_password(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, _ = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                           "--run", "l=5", "--run", "l=7")
    assert code == 0
    assert "join: {{0,1,2,3,4,6},{5},{7}}" in out
    assert "same information every run: no" in out


def test_multirun_single_run_matches_analyze(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, _ = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                           "--run", "l=5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["same_information"] is True
    assert obj["join"] == {"domain": list(range(8)), "blocks": [[0, 1, 2, 3, 4, 6, 7], [5]]}


def test_multirun_identical_runs_keep_same_information(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, _ = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                           "--run", "l=5", "--run", "l=5")
    assert code == 0
    assert "same information every run: yes" in out


def test_multirun_requires_full_assignment(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, _, err = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                           "--run", "x=1")
    assert code == 2
    assert "not a declared low variable" in err or "unassigned" in err


def test_multirun_rejects_a_variable_assigned_twice_in_one_run(workspace, capsys):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, err = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                             "--run", "l=5", "--run", "l=1, l =2")
    assert (code, out) == (2, "")
    assert "--run 'l=1, l =2' assigns 'l' twice" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_multirun_rejects_a_run_value_past_the_digit_limit(workspace, capsys, json_flag):
    # 0x followed by 5000 f's parses, but its decimal text has 6021 digits.
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 100000, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, err = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                             "--run", "l=0x" + "f" * 5000, *json_flag)
    assert (code, out) == (2, "")
    assert "bad --run value" in err
    assert len(err) < 200


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_multirun_shortens_a_long_run_that_leaves_a_low_unassigned(workspace, capsys, json_flag):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {
        "high": [{"name": "h", "bits": 3}],
        "low": [{"name": "l", "bits": 3, "value": 0}],
        "observe": ["o"], "mode": "active"})
    code, out, err = run_cli(capsys, "multirun", pw, "--config", cfg, "--uniform",
                             "--run", "x=0x" + "f" * 3000, *json_flag)
    assert (code, out) == (2, "")
    assert "leaves low variable(s) ['l'] unassigned" in err
    assert len(err) < 200


# ---------------------------------------------------------------------------
# loop / capacity

def test_loop_command_prints_chain_and_crosscheck(workspace, capsys):
    loop = workspace("loop.wh", LOOP_SRC)
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 2}], "low": [],
                                 "observe": ["l"], "mode": "active"})
    code, out, _ = run_cli(capsys, "loop", loop, "--config", cfg)
    assert code == 0
    assert "W_0: {{0},{1,2,3}}" in out
    assert "W_1: {{0,3},{1},{2}}" in out
    assert "collision C: {{0},{1},{2,3}}" in out
    assert "result: {{0},{1},{2,3}}" in out
    assert "cross-check result == direct loi: pass" in out


def test_loop_command_json(workspace, capsys):
    loop = workspace("loop.wh", LOOP_SRC)
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 2}], "low": [],
                                 "observe": ["l"], "mode": "active"})
    code, out, _ = run_cli(capsys, "loop", loop, "--config", cfg, "--json",
                           "--max-iter", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["stabilized"] is True
    assert obj["matches_direct_loi"] is True
    assert obj["collision"]["blocks"] == [[0], [1], [2, 3]]


@pytest.mark.parametrize("command", ["analyze", "compare", "loop", "passive loop",
                                     "multirun", "capacity", "witness-check"])
def test_json_output_is_the_standard_indented_text(workspace, capsys, command):
    # Every command that prints --json prints exactly the default encoder's
    # indented text.
    cfg = workspace("cfg.json", CFG_2BIT)
    passive = workspace("passive.json", {
        "high": [{"name": "h", "bits": 2}], "low": [{"name": "l", "bits": 2}],
        "observe": ["o"], "mode": "passive"})
    m1, m2 = workspace("m1.wh", M1_SRC), workspace("m2.wh", M2_SRC)
    _, out, _ = run_cli(capsys, "compare", m1, m2, "--config", cfg, "--trials", "1", "--json")
    witness = workspace("w.json", json.loads(out)["witness_yx"])
    argv = {
        "analyze": ["analyze", workspace("pw.wh", PASSWORD_SRC), "--config", passive,
                    "--uniform"],
        "compare": ["compare", m1, m2, "--config", cfg, "--trials", "3"],
        "loop": ["loop", workspace("count.wh", "o = 0; while (h > o) o = o + 1;\n"),
                 "--config", cfg],
        "passive loop": ["loop", workspace("ploop.wh", PASSIVE_LOOP_SRC), "--config", passive],
        "multirun": ["multirun", workspace("pw.wh", PASSWORD_SRC), "--uniform",
                     "--run", "l=1", "--run", "l=2", "--config", workspace("active.json", {
                         "high": [{"name": "h", "bits": 2}],
                         "low": [{"name": "l", "bits": 2, "value": 0}], "observe": ["o"]})],
        "capacity": ["capacity", m1, "--config", cfg],
        "witness-check": ["witness-check", m1, m2, "--config", cfg, "--witness", witness,
                          "--direction", "yx"],
    }[command]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# Trees of what the --json forms hold: string-keyed objects, lists, tuples,
# strings, ints, bools and null, with builders (functions returning a tree)
# at any depth.  Rows of 1, 16 and 17 ints sit on each side of the row
# template's length bound.
_json_ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(2**64, 2**80),
                       st.integers(-2**80, -2**64))


def _json_rows(items):
    """Lists of rows of one length, some lists and some tuples."""
    return st.integers(0, 17).flatmap(
        lambda k: st.lists(st.lists(items, min_size=k, max_size=k)
                           .map(lambda r: tuple(r) if len(r) % 2 else r),
                           max_size=6))


_json_leaves = st.one_of(
    st.none(), st.booleans(), _json_ints,
    st.text(st.sampled_from('a"\\\n\x00\x1f\x7fé€𝄞 ')),
    st.lists(st.one_of(_json_ints, st.booleans()), max_size=6),
    _json_rows(_json_ints), _json_rows(st.one_of(_json_ints, st.booleans())),
    st.lists(st.one_of(st.lists(_json_ints, max_size=3), st.tuples(_json_ints)), max_size=5))
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4),
                            inner.map(lambda tree: lambda: tree)),
    max_leaves=12)


def _built(tree):
    """``tree`` with every builder replaced by what it returns."""
    if callable(tree):
        return _built(tree())
    if isinstance(tree, dict):
        return {k: _built(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_built(v) for v in tree]
    return tree


@given(_json_trees)
def test_json_output_matches_json_dumps_on_random_trees(tree):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(tree)
    assert out.getvalue() == json.dumps(_built(tree), indent=2) + "\n"


def test_json_output_of_long_int_arrays_and_rows_matches_json_dumps(capsys):
    # Arrays longer than one slice, and rows of the row template's longest
    # length, of every exact int; a bool or a longer row leaves the fast path.
    tree = {"ints": list(range(-600, 600)), "rows": [(i, -i, 2**70) for i in range(700)],
            "widest": [list(range(i, i + 16)) for i in range(300)],
            "wider": [list(range(i, i + 17)) for i in range(300)],
            "bools": [1] * 300 + [True], "mixed": [[1, 2]] * 300 + [(3, 4), [5, False]]}
    for n in (_SLICE, _SLICE + 1):   # one slice exactly, and one item past it
        tree[f"ints{n}"] = list(range(n))
        tree[f"rows{n}"] = [(i, -i) for i in range(n)]
        tree[f"blocks{n}"] = [[i] for i in range(n)]
    _emit_json(tree)
    assert capsys.readouterr().out == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1: 2}, b"x", {"s": {1, 2}}])
def test_json_output_raises_type_error_outside_its_tree_forms(value):
    with pytest.raises(TypeError):
        _emit_json({"v": value})


class _Sink:
    size = 0

    def write(self, text):
        self.size += len(text)


def test_json_output_is_written_without_holding_the_whole_text():
    # 2^16 atoms print 0.84 MB of text, which the writer never holds whole.
    sink = _Sink()
    obj = {"blocks": [list(range(1 << 16))]}
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            _emit_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.size


def test_json_builder_values_print_as_the_standard_text(capsys):
    tree = {"empty": [], "none": {}, "nil": [], "n": 3, "nl": "\n",
            "items": [{"domain": [i, [i, "\n"]], "blocks": [[i]]} for i in range(3)],
            "nested": [[{}]], "last": ["0", "1"]}
    obj = {"empty": lambda: [], "none": lambda: {}, "nil": [], "n": lambda: 3, "nl": "\n",
           "items": [lambda i=i: tree["items"][i] for i in range(3)],
           "nested": lambda: [lambda: [lambda: {}]], "last": [lambda: "0", lambda: "1"]}
    _emit_json(obj)
    assert capsys.readouterr().out == json.dumps(tree, indent=2) + "\n"
    _emit_json({})
    assert capsys.readouterr().out == "{}\n"


def test_json_builder_items_are_built_and_written_one_at_a_time():
    # 64 items of 2^12 ints print 3.1 MB of text; the items alone would take
    # about 9 MB held at once.
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            _emit_json({"chain": [lambda i=i: list(range(i, i + 4096)) for i in range(64)]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.size // 4


def test_json_rows_are_written_a_slice_at_a_time():
    # A passive partition of 2^13 (low, high) atoms prints its domain as
    # 2^13 two-int rows and its blocks as rows again.
    rows = [(i >> 10, i & 1023) for i in range(1 << 13)]
    obj = {"partition": {"domain": rows, "blocks": [rows[i::64] for i in range(64)]}}
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            _emit_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sink.size // 4


def test_loop_command_reports_non_stabilization_without_failing(workspace, capsys):
    countdown = workspace("count.wh", "o = 0; while (h > o) o = o + 1;\n")
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 3}], "low": [],
                                 "observe": ["o"], "mode": "active"})
    code, out, _ = run_cli(capsys, "loop", countdown, "--config", cfg,
                           "--max-iter", "3")
    assert code == 0
    assert "stabilized: no" in out
    assert "cross-check result == direct loi: skipped" in out


_PASSIVE_2x1 = {"high": [{"name": "h", "bits": 2}], "low": [{"name": "l", "bits": 1}],
                "observe": ["o"], "mode": "passive"}
_LOOPS_PAST_THE_OLD_CAP = {
    "passive parity countdown": (
        "x = h; o = 0; while (x > 0) { x = x - 1; o = 1 - o; }\n", _PASSIVE_2x1),
    "passive count driven by lows": (
        "x = h + l; o = 0; while (x > 0) { x = x - 1; o = o + 1; }\n",
        dict(_PASSIVE_2x1, low=[{"name": "l", "bits": 2}])),
    "100 iterations on a 2-bit secret": (
        "x = 0; while (x < 100) x = x + 1; o = x + h;\n", CFG_2BIT),
    "passive lows 2 and 3 spin out of budget": (
        "x = h; o = 0; while (x > 0) { if (l < 2) x = x - 1; o = 1 - o; }\n",
        dict(_PASSIVE_2x1, low=[{"name": "l", "bits": 2}], budget=40)),
}


@pytest.mark.parametrize("name", list(_LOOPS_PAST_THE_OLD_CAP))
def test_loop_command_default_cap_and_passive_views(workspace, capsys, name):
    source, cfg_obj = _LOOPS_PAST_THE_OLD_CAP[name]
    prog = workspace("loop.wh", source)
    cfg = workspace("cfg.json", cfg_obj)
    code, out, err = run_cli(capsys, "loop", prog, "--config", cfg)
    assert code == 0 and err == ""
    assert "cross-check result == direct loi: pass" in out
    if name.startswith("100"):
        assert "iterations analyzed: 101 (stabilized: yes)" in out


def test_partition_summary_for_large_domains(workspace, capsys):
    p1 = workspace("p1.wh", "if (h % 8 == 0) o = h; else o = 1;\n")
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 8}], "low": [],
                                 "observe": ["o"], "mode": "active"})
    code, out, _ = run_cli(capsys, "capacity", p1, "--config", cfg)
    assert code == 0
    assert "<33 blocks over 256 atoms; sizes 224x1,1x32>" in out
    assert "blocks: 33" in out


def test_capacity_command(workspace, capsys):
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, _ = run_cli(capsys, "capacity", m2, "--config", cfg)
    assert code == 0
    assert "channel capacity (bits): 2" in out
    assert "blocks: 4" in out


# ---------------------------------------------------------------------------
# exit codes

def test_syntax_error_exits_two(workspace, capsys):
    bad = workspace("bad.wh", "if h) x=1;")
    cfg = workspace("cfg.json", CFG_2BIT)
    code, _, err = run_cli(capsys, "analyze", bad, "--config", cfg, "--uniform")
    assert code == 2
    assert "1:4" in err


def test_enumeration_cap_exits_three(workspace, capsys):
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 24}], "low": [],
                                 "observe": ["o"], "mode": "active"})
    code, _, err = run_cli(capsys, "analyze", m2, "--config", cfg, "--uniform")
    assert code == 3
    assert "cap" in err


def test_sixty_four_bit_variable_exits_three(workspace, capsys):
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 64}], "low": [],
                                 "observe": ["o"], "mode": "active"})
    code, out, err = run_cli(capsys, "capacity", m2, "--config", cfg)
    assert code == 3 and out == ""
    assert "cap" in err and "Traceback" not in err


def test_huge_widths_are_never_shifted_out(workspace, capsys):
    # 2^(10^30) cannot be built: the cap is checked on the width of a high,
    # and a pinned low's value on its bit length.
    huge = 10 ** 30
    m2 = workspace("m2.wh", M2_SRC)
    high = workspace("high.json", {"high": [{"name": "h", "bits": huge}],
                                   "observe": ["o"]})
    code, out, err = run_cli(capsys, "capacity", m2, "--config", high)
    assert code == 3 and out == ""
    assert f"2^{huge} atoms to enumerate exceeds the cap of 1048576" in err
    reads_low = workspace("p.wh", "o = h + l;\n")
    low = workspace("low.json", {"high": [{"name": "h", "bits": 2}],
                                 "low": [{"name": "l", "bits": huge, "value": 5}],
                                 "observe": ["o"]})
    code, out, err = run_cli(capsys, "capacity", reads_low, "--config", low)
    assert code == 0 and err == ""
    assert "blocks: 4" in out
    # A value that fits the width is stored as it is, never masked.
    assigns_low = workspace("a.wh", "l = h;\no = l;\n")
    code, out, err = run_cli(capsys, "capacity", assigns_low, "--config", low)
    assert code == 0 and err == ""
    assert "blocks: 4" in out


def test_negative_value_in_a_huge_width_is_a_fault(workspace, capsys):
    # -h wraps to 2^(10^30) - h for h > 0, far past the 2^20 bits a wrapped
    # value may need: those atoms fault, h = 0 stores 0.
    program = workspace("neg.wh", "l = 0 - h;\no = l;\n")
    low = workspace("low.json", {"high": [{"name": "h", "bits": 2}],
                                 "low": [{"name": "l", "bits": 10 ** 30, "value": 5}],
                                 "observe": ["o"]})
    code, out, err = run_cli(capsys, "capacity", program, "--config", low)
    assert code == 0 and err == ""
    assert "blocks: 2" in out


def test_bad_distribution_sum_exits_two(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {"0": "1/2", "1": "1/4", "2": "1/8",
                                          "3": "1/16"}})
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert code == 2
    assert "1/16" in err


def test_missing_file_exits_two(workspace, capsys):
    cfg = workspace("cfg.json", CFG_2BIT)
    code, _, err = run_cli(capsys, "analyze", "nope.wh", "--config", cfg,
                           "--uniform")
    assert code == 2
    assert "nope.wh" in err


def test_budget_flag_overrides_config(workspace, capsys):
    spin = workspace("spin.wh", "o = 0; while (o < h) o = o + 1;\n")
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 3}], "low": [],
                                 "observe": ["o"], "mode": "active"})
    _, out_small, _ = run_cli(capsys, "analyze", spin, "--config", cfg,
                              "--uniform", "--budget", "8", "--json")
    _, out_big, _ = run_cli(capsys, "analyze", spin, "--config", cfg,
                            "--uniform", "--budget", "100000", "--json")
    small = json.loads(out_small)["partition"]["blocks"]
    big = json.loads(out_big)["partition"]["blocks"]
    assert len(small) < len(big)


def test_distribution_mass_not_an_object_exits_two(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": ["1/4", "1/4", "1/4", "1/4"]})
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert code == 2
    assert '"mass"' in err


@pytest.mark.parametrize("bad", [["1/4"], {"p": "1/4"}, True])
def test_distribution_mass_value_of_wrong_type_exits_two(workspace, capsys, bad):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {"0": bad, "1": "1/4", "2": "1/4",
                                          "3": "1/4"}})
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert code == 2
    assert "bad mass" in err and "'0'" in err


@pytest.mark.parametrize("huge, message", [
    ("1e999999", "total mass is about 10^999999"),
    ("-1e999999", "negative mass -about 10^999999"),
    ("1e-4300", "total mass is about 10^-4300"),
    ("1e-99999999", "decimal exponent below -4300"),
    ("1e99999999", "total mass is about 10^99999999"),
    ("-1e99999999", "negative mass -about 10^99999999"),
    ("1e3000000", "total mass is about 10^3000000"),
    ("1e4301", "total mass is about 10^4301"),
])
def test_huge_distribution_mass_exits_two_with_short_message(workspace, capsys,
                                                             huge, message):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {"0": huge, "1": "0", "2": "0", "3": "0"}})
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert message in err
    assert len(err) < 200


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_entropy_of_block_counts_past_the_float_range(workspace, capsys, json_flag):
    # Over the least common denominator 2AB the block counts have about 320
    # digits, past the largest float.
    a, b = 10 ** 160 + 1, 10 ** 160 + 3
    masses = [Fraction(1, 2 * a), Fraction(a - 1, 2 * a), Fraction(1, 2 * b),
              Fraction(b - 1, 2 * b)]
    program = workspace("id.wh", "o = h;\n")
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {str(i): str(p) for i, p in enumerate(masses)}})
    code, out, err = run_cli(capsys, "analyze", program, "--config", cfg, "--dist", dist,
                             *json_flag)
    assert code == 0 and err == ""
    if json_flag:
        got = json.loads(out)["measures"]["entropy_bits"]
    else:
        got = next(line for line in out.splitlines()
                   if line.startswith("entropy H (bits): ")).split(": ")[1]
    assert float(got) == pytest.approx(-math.fsum(p * math.log2(p) for p in masses), rel=1e-12)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_denominator_too_wide_to_print_exits_two(workspace, capsys, json_flag):
    # Over the least common denominator 2AB, G_1 would be a ratio of two
    # integers of about 8000 digits, past the int-string digit limit.  The
    # first mass's denominator 2A alone is past the bound.
    a, b = 10 ** 4000 + 19, 10 ** 4000 + 33
    masses = [Fraction(1, 2 * a), Fraction(a - 1, 2 * a), Fraction(1, 2 * b),
              Fraction(b - 1, 2 * b)]
    assert sum(masses) == 1
    program = workspace("id.wh", "o = h;\n")
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {str(i): str(p) for i, p in enumerate(masses)}})
    code, out, err = run_cli(capsys, "analyze", program, "--config", cfg, "--dist", dist,
                             *json_flag)
    assert code == 2 and out == ""
    assert "for atom 0: the least common denominator of the masses up to it is wider than " \
        f"{MAX_DENOMINATOR_BITS} bits" in err
    assert "Traceback" not in err and len(err) < 300


@settings(deadline=None, max_examples=25)
@given(st.lists(st.builds(lambda digits, r: 10 ** digits + r, st.integers(0, 3000),
                          st.integers(2, 1000)), min_size=4, max_size=4))
def test_wide_denominators_exit_zero_or_two_in_bounded_time(tmp_path_factory, denominators):
    # Four pairs 1/(4q), (q-1)/(4q) sum to 1; over 8 atoms they print or are rejected.
    masses = [m for q in denominators for m in (Fraction(1, 4 * q), Fraction(q - 1, 4 * q))]
    path = tmp_path_factory.mktemp("wide")
    (path / "id.wh").write_text("o = h;\n")
    (path / "cfg.json").write_text(json.dumps({"high": [{"name": "h", "bits": 3}],
                                               "observe": ["o"]}))
    (path / "mu.json").write_text(json.dumps(
        {"domain": list(range(8)), "mass": {str(i): str(m) for i, m in enumerate(masses)}}))
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path / "id.wh"), "--config", str(path / "cfg.json"),
                     "--dist", str(path / "mu.json"), "--json"])
    assert time.perf_counter() - started < 2.0
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


def test_many_wide_coprime_denominators_are_rejected_at_once(workspace, capsys):
    base = 10 ** 999
    dist = workspace("mu.json", {"domain": list(range(4096)),
                                 "mass": {str(i): f"1/{base + i}" for i in range(4096)}})
    program = workspace("id.wh", "o = h;\n")
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 12}], "observe": ["o"]})
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", program, "--config", cfg, "--dist", dist)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert f"wider than {MAX_DENOMINATOR_BITS} bits" in err


@pytest.mark.parametrize("mass", ["9" * 10_000, "1/" + "9" * 5000])
def test_distribution_mass_past_the_digit_limit_exits_two(workspace, capsys, mass):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                 "mass": {"0": mass, "1": "1", "2": "0", "3": "0"}})
    code, out, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist)
    assert code == 2 and out == ""
    assert "bad mass" in err and "for atom 0: Exceeds the limit" in err
    assert len(err) < 200


def test_zero_mass_with_huge_exponent_is_zero(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    outs = []
    for zero in ("0e99999999", "0"):
        dist = workspace("mu.json", {"domain": [0, 1, 2, 3],
                                     "mass": {"0": zero, "1": "1/2", "2": "1/4", "3": "1/4"}})
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", dist,
                                 "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["measures"]["guess_prob"]["1"] == "3/4"


@pytest.mark.parametrize("cfg_obj", [
    dict(CFG_2BIT, budget="abc"),
    dict(CFG_2BIT, high=[{"name": "h", "bits": "x"}]),
    dict(CFG_2BIT, cap=1.5),
    {"high": [{"name": "h", "bits": 2}],
     "low": [{"name": "l", "bits": 2, "value": "one"}],
     "observe": ["o"], "mode": "active"},
])
def test_non_integer_config_fields_exit_two(workspace, capsys, cfg_obj):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", cfg_obj)
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform")
    assert code == 2
    assert "must be an integer" in err


@pytest.mark.parametrize("cfg_obj", [
    dict(CFG_2BIT, high=[{"name": None, "bits": 2}]),
    dict(CFG_2BIT, high=[{"name": 7, "bits": 2}]),
    dict(CFG_2BIT, high=[{"name": ["h"], "bits": 2}]),
    dict(CFG_2BIT, low=[{"name": 7, "bits": 2, "value": 1}]),
])
def test_non_string_config_names_exit_two(workspace, capsys, cfg_obj):
    # Read as a string, a null name would declare the None this program reads.
    prog = workspace("none.wh", "o = None + 1;\n")
    cfg = workspace("cfg.json", cfg_obj)
    code, out, err = run_cli(capsys, "capacity", prog, "--config", cfg)
    assert (code, out) == (2, "")
    assert "variable name must be a string" in err


@pytest.mark.parametrize("command", ["analyze", "multirun"])
@pytest.mark.parametrize("guesses", ["0", "-3"])
def test_guesses_below_one_exits_two(workspace, capsys, command, guesses):
    pw = workspace("pw.wh", PASSWORD_SRC)
    cfg = workspace("cfg.json", {"high": [{"name": "h", "bits": 2}],
                                 "low": [{"name": "l", "bits": 2, "value": 0}],
                                 "observe": ["o"]})
    runs = ["--run", "l=1"] if command == "multirun" else []
    code, out, err = run_cli(capsys, command, pw, "--config", cfg, "--uniform",
                             "--guesses", guesses, *runs)
    assert code == 2 and out == ""
    assert "--guesses" in err


def test_compare_zero_trials_exits_two(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, err = run_cli(capsys, "compare", m1, m2, "--config", cfg,
                             "--trials", "0")
    assert code == 2 and out == ""
    assert "--trials" in err


# ---------------------------------------------------------------------------
# hostile inputs exit 2

_DEPTH_LIMIT_PROGRAMS = {
    "at the limit": ("o = " + "+".join(["h"] * (MAX_DEPTH - 3)) + ";\n", 0),
    "one past the limit": ("o = " + "+".join(["h"] * (MAX_DEPTH - 2)) + ";\n", 2),
    "200 parentheses": ("o = " + "(" * 200 + "h" + ")" * 200 + ";\n", 0),
    "3000 parentheses": ("o = " + "(" * 3000 + "h" + ")" * 3000 + ";\n", 2),
    "1500-term chain": ("o = " + "+".join(["h"] * 1500) + ";\n", 2),
    "1000 unary minus": ("o = " + "-" * 1000 + "h;\n", 2),
    "1000 nested if": ("if (h) " * 1000 + "o = h;\n", 2),
    "3000 nested braces": ("{" * 3000 + "}" * 3000 + "\n", 2),
}


@pytest.mark.parametrize("name", list(_DEPTH_LIMIT_PROGRAMS))
def test_nesting_depth_exit_codes(workspace, capsys, name):
    source, want = _DEPTH_LIMIT_PROGRAMS[name]
    prog = workspace("deep.wh", source)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, out, err = run_cli(capsys, "analyze", prog, "--config", cfg, "--uniform")
    assert code == want
    if want == 2:
        assert out == "" and "deep" in err


@pytest.mark.parametrize("observe", [5, "out", ["o", 1]])
def test_observe_must_be_an_array_of_names(workspace, capsys, observe):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", dict(CFG_2BIT, observe=observe))
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform")
    assert code == 2
    assert "observe must be a JSON array" in err


@pytest.mark.parametrize("which", ["program", "config"])
def test_non_utf8_file_exits_two(workspace, capsys, tmp_path, which):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"high": [{"name": "h\xff", "bits": 2}]}\n' if which == "config"
                    else b"o = h; // \xff\n")
    args = (["analyze", str(bad), "--config", cfg] if which == "program"
            else ["analyze", m1, "--config", str(bad)])
    code, _, err = run_cli(capsys, *args, "--uniform")
    assert code == 2
    assert "not UTF-8" in err


def test_zero_budget_exits_two(workspace, capsys):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    code, _, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--uniform",
                           "--budget", "0")
    assert code == 2
    assert "budget" in err


_WITNESS_DIST = {"domain": [0, 1, 2, 3], "mass": {"1": "1/2", "2": "1/2"}}


def _nested(depth: int):
    """The JSON atom 3 inside ``depth`` arrays."""
    atom = 3
    for _ in range(depth):
        atom = [atom]
    return atom


@pytest.mark.parametrize("witness, message", [
    ({"distribution": _WITNESS_DIST, "n": "abc", "violated_block": [1, 2]}, '"n"'),
    ({"distribution": _WITNESS_DIST, "n": 1e400, "violated_block": [1, 2]}, '"n"'),
    ({"distribution": _WITNESS_DIST, "n": 1.7, "violated_block": [1, 2]}, '"n"'),
    ({"distribution": _WITNESS_DIST, "n": 1, "violated_block": 5}, '"violated_block"'),
    ({"distribution": {"domain": [0, 0, 2, 3], "mass": {"2": "1"}}, "n": 1,
      "violated_block": [2]}, "duplicate atom"),
    ({"distribution": {"domain": [0, {}, 2, 3], "mass": {"2": "1"}}, "n": 1,
      "violated_block": [2]}, "unhashable"),
    ({"distribution": {"domain": [0, 1, 2, 3], "mass": {"1": "1e99999999"}}, "n": 1,
      "violated_block": [1, 2]}, "total mass is about 10^99999999"),
    *[({"distribution": {"domain": [0, 1, 2, _nested(depth)], "mass": {"2": "1"}}, "n": 1,
        "violated_block": [2]}, "atom nested too deep") for depth in (400, 600, 900)],
    ({"distribution": _WITNESS_DIST, "n": 1, "violated_block": [1, _nested(600)]},
     "atom nested too deep"),
])
def test_bad_witness_exits_two(workspace, capsys, witness, message):
    m1 = workspace("m1.wh", M1_SRC)
    m2 = workspace("m2.wh", M2_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    # json.dumps spells an infinite float "Infinity"; keep the literal 1e400
    w = workspace("w.json", json.dumps(witness).replace("Infinity", "1e400"))
    code, _, err = run_cli(capsys, "witness-check", m1, m2, "--config", cfg,
                           "--witness", w)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("depth, message", [
    (300, "does not match"),            # read, and over another domain
    (600, "atom nested too deep"),      # parsed, but too deep to read as an atom
    (990, "JSON nested too deep"),      # too deep to parse
])
def test_deeply_nested_dist_atom_exits_two(workspace, capsys, depth, message):
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    # Written as text: json.dumps itself stops short of 990 levels here.
    mu = workspace("mu.json", '{"domain": [0, 1, 2, %s3%s], "mass": {"0": "1"}}'
                   % ("[" * depth, "]" * depth))
    code, out, err = run_cli(capsys, "analyze", m1, "--config", cfg, "--dist", mu)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


# A JSON integer of more than 4300 digits and a 100 000-deep array, in each
# JSON file the CLI reads.
_HOSTILE_JSON = {
    "5001-digit integer": ('{"cap": 1' + "0" * 5000 + "}",
                           "not valid JSON: an integer has more than 4300 digits"),
    "100000-deep array": ("[" * 100_000, "nested too deep"),
}


@pytest.mark.parametrize("which", ["config", "dist", "witness"])
@pytest.mark.parametrize("name", list(_HOSTILE_JSON))
def test_hostile_json_exits_two(workspace, capsys, which, name):
    text, message = _HOSTILE_JSON[name]
    m1 = workspace("m1.wh", M1_SRC)
    cfg = workspace("cfg.json", CFG_2BIT)
    bad = workspace("bad.json", text)
    args = {
        "config": ["analyze", m1, "--config", bad, "--uniform"],
        "dist": ["analyze", m1, "--config", cfg, "--dist", bad],
        "witness": ["witness-check", m1, m1, "--config", cfg, "--witness", bad],
    }[which]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert message in err and "bad.json" in err
    assert "set_int_max_str_digits" not in err


# ---------------------------------------------------------------------------
# Fuzzing the --dist file

# Spellings of the masses 0, 1/4 and 1/2, and three ways to split 1 among
# the four atoms, in quarters.
_SPELLINGS = {0: ["0", 0, "-0.0", "0e99999999", "-0e-99999999"],
              1: ["1/4", "0.25", "2.5e-1", " 1/4 ", "25_0e-3", 0.25],
              2: ["1/2", "0.5", "5E-1", 0.5]}
_SPLITS_OF_ONE = st.sampled_from([(1, 1, 1, 1), (0, 2, 1, 1), (2, 0, 0, 2)]).flatmap(
    lambda quarters: st.tuples(*(st.sampled_from(_SPELLINGS[q]) for q in quarters)))
_ODD_MASS = st.one_of(
    st.sampled_from(["1e99999999", "-1e99999999", "1e-99999999", "1e4301", "1/0"]),
    mass_strings(),
    st.integers(-2, 2), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.just("p"), st.just("1/4"), max_size=1))


def _dist_obj(parts):
    """Each atom takes its mass from the split of 1, an odd mass or no
    entry; an unknown key may be added."""
    split, kinds, odd, unknown = parts
    mass = {str(a): m if kind == "split" else o
            for a, (m, kind, o) in enumerate(zip(split, kinds, odd)) if kind != "missing"}
    return {"domain": [0, 1, 2, 3], "mass": {**mass, **unknown}}


_DIST_OBJ = st.tuples(
    _SPLITS_OF_ONE,
    st.lists(st.sampled_from(["split", "split", "split", "missing", "odd"]),
             min_size=4, max_size=4),
    st.lists(_ODD_MASS, min_size=4, max_size=4),
    st.dictionaries(st.sampled_from(["9", "x", "(0,1)", " 1"]), _ODD_MASS, max_size=1),
).map(_dist_obj)


def _exit_code_of_two_runs(argv: list[str]) -> int:
    """Run ``main`` twice on ``argv``: each run takes under 2 s and writes
    no traceback, and both print the same stdout with the same exit code."""
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - started < 2.0
        assert "Traceback" not in err.getvalue()
        runs.append((code, out.getvalue()))
    assert runs[0] == runs[1]
    return runs[0][0]


@given(_DIST_OBJ)
def test_fuzzed_distribution_files_exit_zero_or_two(tmp_path_factory, obj):
    """Generated --dist files: mass strings, JSON numbers, bools, lists,
    objects, unknown and missing keys.  Every one exits 0 or 2 without a
    traceback, within 2 s, with the same stdout twice."""
    work = tmp_path_factory.mktemp("fuzz")
    m1, cfg, dist = work / "m1.wh", work / "cfg.json", work / "mu.json"
    m1.write_text(M1_SRC)
    cfg.write_text(json.dumps(CFG_2BIT))
    dist.write_text(json.dumps(obj))
    assert _exit_code_of_two_runs(
        ["analyze", str(m1), "--config", str(cfg), "--dist", str(dist)]) in (0, 2)


# ---------------------------------------------------------------------------
# Fuzzing the --config file

# What JSON may hold where an integer belongs.  ``json.dumps`` cannot write
# an integer past the int-string digit limit, so the file gets one in place
# of the string ``_HUGE_INT``.
_HUGE_INT = "<5000-digit integer>"
_NOT_AN_INT = [True, False, 1.5, -0.0, "3", None, _HUGE_INT]


def _mostly(usual: list, odd: list):
    """One of ``usual`` about three times in four, else one of ``odd``;
    shrinks towards the first usual value."""
    return st.sampled_from(usual * (3 * len(odd) // len(usual) + 1) + odd)


_WIDTH = _mostly([1, 2, 3], [-1, 0, 10 ** 30, *_NOT_AN_INT])
_HIGH = st.fixed_dictionaries({"name": _mostly(["h"], ["l", None, 7, ["h"]]), "bits": _WIDTH})
_LOW = st.fixed_dictionaries({
    "name": _mostly(["l"], ["h", None, 7, ["h"]]),
    "bits": _mostly([1, 2, 3, 10 ** 30], [-1, 0, *_NOT_AN_INT]),
    "value": _mostly([0, 5, 1], [-1, -5, 10 ** 30, *_NOT_AN_INT]),
})
_OBSERVED = st.lists(_mostly(["o", "l", "h"], ["nobody"]), min_size=1, max_size=3)
_CONFIG_OBJ = st.fixed_dictionaries({
    # Mostly one declaration each; a second one may repeat a name.
    "high": st.tuples(_HIGH).map(list) | st.lists(_HIGH, max_size=2),
    "low": st.tuples(_LOW).map(list) | st.lists(_LOW, max_size=2),
}, optional={
    "observe": _OBSERVED | _OBSERVED | st.sampled_from([[], "o", 5, None]),
    "mode": _mostly(["active", "passive"], ["eavesdropper", None, 1]),
    "budget": _mostly([100, 5, 1, 10 ** 30], [0, -1, *_NOT_AN_INT]),
    "cap": _mostly([64, 4, 1, 10 ** 30], [0, -1, *_NOT_AN_INT]),
})
# Every loop stops within a few iterations whatever the values, so a large
# budget never makes a run slow.
_FUZZ_PROGRAMS = ["l = 0 - h;\no = l;\n", "o = h + l;\n",
                  "o = 0;\nwhile (o < h && o < 3) o = o + 1 + l * h;\n"]
_FUZZ_COMMANDS = [["capacity"], ["analyze", "--uniform"], ["loop"]]


@given(_CONFIG_OBJ, st.sampled_from(_FUZZ_PROGRAMS), st.sampled_from(_FUZZ_COMMANDS))
def test_fuzzed_config_files_exit_zero_two_or_three(tmp_path_factory, obj, source, command):
    """Generated --config files: widths, values, budgets and caps that are
    negative, zero, huge or not integers at all, names that are not
    strings, unknown modes, observed names nobody declares.  Every one
    exits 0, 2 or 3 without a traceback, within 2 s, with the same stdout
    twice."""
    work = tmp_path_factory.mktemp("fuzz")
    program, cfg = work / "p.wh", work / "cfg.json"
    program.write_text(source)
    cfg.write_text(json.dumps(obj).replace(json.dumps(_HUGE_INT), "9" * 5000))
    assert _exit_code_of_two_runs(
        [command[0], str(program), "--config", str(cfg), *command[1:]]) in (0, 2, 3)
