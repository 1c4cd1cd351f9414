import contextlib
import io
import itertools
import json
import math
import random
import re
import reprlib
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loiqif import (
    Distribution,
    Domain,
    DomainMismatchError,
    InvalidDistributionError,
    Partition,
    QifError,
    bottom,
    capacity_achieving_distribution,
    channel_capacity,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_guesses,
    ge_leakage,
    ge_prime,
    guess_prob,
    joint_entropy,
    kernel,
    me_leakage,
    me_prime,
    measure_report,
    meet,
    mutual_information,
    shannon_distance,
    top,
)
from loiqif import cli, measures
from loiqif.lang import config_from_json, enumerate_domain
from loiqif.measures import (
    _exact,
    _lists_atoms,
    _mass_keys,
    _ratio,
    distribution_from_json,
    distribution_to_json,
    format_real,
    measure_report_to_json,
    one_try_gain,
)
from loiqif.partition import atom_from_json, atom_key

from helpers import (
    all_partitions,
    conditional_entropy_oracle,
    distribution_from_json_reference,
    entropy_oracle,
    entropy_lcm_reference,
    expected_guesses_oracle,
    ge_leakage_direct,
    ge_prime_oracle,
    guess_prob_oracle,
    lists_atoms_reference,
    mass_strings,
    me_leakage_direct,
    me_prime_reference,
    random_partition,
    read_distribution_reference,
)

TOL = 1e-9

D4 = Domain([0, 1, 2, 3])
U4 = Distribution.uniform(D4)
M1 = Partition(D4, [[1], [0, 2, 3]])   # reveals whether the secret is 1
M2 = top(D4)                           # reveals everything

D1234 = Domain([1, 2, 3, 4])
A = Partition(D1234, [[1, 2], [3, 4]])
B = Partition(D1234, [[1, 3], [2, 4]])
U1234 = Distribution.uniform(D1234)


# ---------------------------------------------------------------------------
# Distribution

def test_distribution_requires_exact_unit_mass():
    with pytest.raises(InvalidDistributionError, match="off from 1 by 1/8"):
        Distribution(D4, {0: "1/4", 1: "1/4", 2: "1/4", 3: "1/8"})


def test_distribution_rejects_negative_and_foreign_and_missing():
    with pytest.raises(InvalidDistributionError, match="negative"):
        Distribution(D4, {0: Fraction(3, 2), 1: Fraction(-1, 2), 2: 0, 3: 0})
    with pytest.raises(InvalidDistributionError, match="unknown atom"):
        Distribution(D4, {0: 1, 1: 0, 2: 0, 3: 0, 9: 0})
    with pytest.raises(InvalidDistributionError, match="no mass entry"):
        Distribution(D4, {0: 1, 1: 0, 2: 0})


@pytest.mark.parametrize("atom", [9, [1]], ids=["foreign", "unhashable"])
def test_indexing_by_a_foreign_atom_is_a_domain_mismatch(atom):
    with pytest.raises(DomainMismatchError, match=f"atom {re.escape(repr(atom))} is not in"):
        U4[atom]


@pytest.mark.parametrize("build, message", [
    (lambda: Distribution.from_weights(D4, {0: 1, "zz": 1}), "unknown atom 'zz'"),
    (lambda: Distribution.from_weights(D4, [1, 2]), "2 weights for a domain of 4"),
    (lambda: Distribution.from_weights(D4, [1, 2, 3, 4, 5]), "5 weights for a domain of 4"),
    (lambda: Distribution.from_weights(D4, [0.5, 0.5, 0, 0]), "not an integer"),
    (lambda: Distribution.from_weights(D4, [-(10**400), 10**400 + 1, 0, 0]),
     "negative mass -about 10^400 on atom 0"),
    (lambda: Distribution.from_weights(D4, [0, 0, 0, 0]), "positive total"),
    (lambda: Distribution(D4, {0: "abc", 1: 1, 2: 0, 3: 0}), "bad mass 'abc' for atom 0"),
    (lambda: Distribution(D4, {0: [1], 1: 1, 2: 0, 3: 0}), "bad mass [1] for atom 0"),
    (lambda: Distribution(D4, {0: "1/0", 1: 1, 2: 0, 3: 0}), "bad mass '1/0' for atom 0"),
    (lambda: Distribution(D4, {0: "9" * 10_000, 1: 1, 2: 0, 3: 0}), "bad mass '999"),
    (lambda: Distribution.uniform_on(D4, [1, 7]), "unknown atom 7"),
])
def test_every_constructor_rejects_bad_weights_briefly(build, message):
    with pytest.raises(InvalidDistributionError) as info:
        build()
    assert message in str(info.value)
    assert len(str(info.value)) < 200


def test_uniform_on_counts_a_repeated_atom_once():
    assert Distribution.uniform_on(D4, [1, 1, 3]) == Distribution.uniform_on(D4, [1, 3])
    assert Distribution.uniform_on(D4, [1, 1])[1] == 1


def _read(convert, text):
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError, InvalidDistributionError):
        return "rejected"


def _ratio_value(text):
    p, q = _ratio(text, 0)
    assert isinstance(p, int) and isinstance(q, int) and q > 0
    return Fraction(p, q)


@settings(max_examples=400)
@given(st.one_of(mass_strings(), st.sampled_from([
    "007", "00/08", "0/5", "00/000", "1/0", "٣/٤", "٣", "1_0/20", "2/8", "1/ 2", "1//2",
    "1/2/3", "/2", "1/", " 1/2", "1/2\n", "+1/2", "1.5/2", "²/3"])))
def test_mass_conversion_agrees_with_fraction(text):
    """_ratio reads plain digit ratios by int alone and the rest by _exact;
    either way the value, or the rejection, is Fraction's."""
    assert _read(lambda t: _exact(t, 0), text) == _read(Fraction, text)
    assert _read(_ratio_value, text) == _read(Fraction, text)


@pytest.mark.parametrize("text", ["9" * 10_000, "1/" + "9" * 5000, "9" * 5000 + "/1"])
def test_mass_past_the_digit_limit_is_rejected_as_fraction_rejects_it(text):
    """int refuses the text at the int-string digit limit; the reader falls
    back to _exact and gives its message, from the constructor and from
    the JSON reader alike."""
    with pytest.raises(ValueError) as fraction_error:
        Fraction(text)
    message = (f"bad mass {reprlib.repr(text)} for atom 0: "
               f"{str(fraction_error.value).partition(':')[0]}")
    for build in (lambda: Distribution(D4, {0: text, 1: 1, 2: 0, 3: 0}),
                  lambda: distribution_from_json({"domain": [0, 1, 2, 3],
                                                  "mass": {"0": text, "1": "1"}})):
        with pytest.raises(InvalidDistributionError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("mass, message", [
    # Every bad mass is parsed in domain order, whatever the file order.
    ({"1": "abc", "0": "xyz"}, "bad mass 'xyz' for atom 0"),
    ({"1": "1/0", "0": "1", "2": "-1"}, "bad mass '1/0' for atom 1"),
    # Unknown keys and values that are no number or string come first, in file order.
    ({"1": "abc", "9": "xyz", "0": [1]}, "mass entry for unknown atom '9'"),
    ({"1": "abc", "0": [1], "9": "xyz"}, "bad mass [1] for atom '0'"),
])
def test_distribution_json_names_the_first_bad_mass(mass, message):
    with pytest.raises(InvalidDistributionError) as info:
        distribution_from_json({"domain": [0, 1, 2], "mass": mass})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("mantissa", ["0", "-0.000", "00_0.0", "1", "-2.5", "0.001", "7_0",
                                      "1/2", "1 "])
@pytest.mark.parametrize("exponent, small", [
    ("e4301", "e1"), ("E-4301", "E-1"), ("e+99999999", "e+9"), ("e-100000000", "e-1"),
    ("e1_000_000", "e1_0")])
def test_mass_past_the_exponent_bound_is_zero_or_rejected_at_once(mantissa, exponent, small):
    """Past the bound a mass is 0 if Fraction reads the same mantissa with
    a small exponent of the same shape as 0, and is rejected otherwise."""
    start = time.perf_counter()
    value = _read(lambda t: _exact(t, 0), f" {mantissa}{exponent} ")
    assert time.perf_counter() - start < 1
    assert value == (0 if _read(Fraction, f" {mantissa}{small} ") == 0 else "rejected")


def test_distribution_with_huge_exponents_builds_at_once():
    start = time.perf_counter()
    mu = Distribution(D4, {0: "0e99999999", 1: "1", 2: "-0e-99999999", 3: 0})
    assert mu == Distribution.uniform_on(D4, [1])
    for huge in ("1e-99999999", "1e99999999", "-1e99999999"):
        with pytest.raises(InvalidDistributionError):
            Distribution(D4, {0: huge, 1: 1, 2: 0, 3: 0})
    assert time.perf_counter() - start < 1


def test_decimal_masses_bound_their_exponent():
    start = time.perf_counter()
    for huge in ("1e99999999", "-1e99999999", "1e-99999999"):
        with pytest.raises(InvalidDistributionError, match="bad mass"):
            Distribution(D4, {0: Decimal(huge), 1: 1, 2: 0, 3: 0})
    mu = Distribution(D4, {0: Decimal("0e99999999"), 1: Decimal("0.5"),
                           2: Decimal("5E-1"), 3: Decimal("-0.000")})
    assert mu == Distribution.uniform_on(D4, [1, 2])
    assert time.perf_counter() - start < 1


def test_from_weights_normalizes_exactly():
    mu = Distribution.from_weights(D4, [1, 2, 3, 2])
    assert mu[2] == Fraction(3, 8)
    assert sum(mu.mass.values()) == 1


def test_uniform_on_support():
    mu = Distribution.uniform_on(D4, [1, 3])
    assert mu[1] == mu[3] == Fraction(1, 2) and mu[0] == mu[2] == 0


@pytest.mark.parametrize("domain", [D4, Domain([(0, "a"), (1, "b")]),
                                    Domain.product((range(2), range(4)))],
                         ids=["ints", "listed tuples", "enumerated"])
def test_uniform_distributions_equal_their_checked_weights(domain):
    # uniform and uniform_on skip the weight check; their weights must pass it.
    n = domain.size
    assert Distribution.uniform(domain) == Distribution.from_weights(domain, [1] * n)
    for support in ([0], range(n), range(0, n, 2), [n - 1, 0, n - 1]):
        atoms = [domain.atoms[i] for i in support]
        weights = [int(i in support) for i in range(n)]
        assert Distribution.uniform_on(domain, atoms) == Distribution.from_weights(domain, weights)


def test_random_distribution_is_seeded_and_exact():
    a = Distribution.random(D4, random.Random(7))
    b = Distribution.random(D4, random.Random(7))
    assert a == b
    assert sum(a.mass.values()) == 1


@pytest.mark.parametrize("cfg", [
    {"high": [{"name": "h", "bits": 2}, {"name": "k", "bits": 3}], "observe": ["o"]},
    {"high": [{"name": "h", "bits": 3}], "low": [{"name": "l", "bits": 2}],
     "observe": ["o"], "mode": "passive"},
])
def test_random_distribution_draws_as_one_draw_per_atom(cfg):
    """Drawing over the domain's size makes the same RNG calls, and gives
    the same weights, as drawing once per atom of a product domain."""
    d = enumerate_domain(config_from_json(cfg))
    for seed in range(4):
        rng, old = random.Random(seed), random.Random(seed)
        weights = [0 if old.random() < 0.25 else old.randint(1, 1000) for _ in d.atoms]
        if not any(weights):
            weights[old.randrange(d.size)] = old.randint(1, 1000)
        assert Distribution.random(d, rng) == Distribution.from_weights(d, weights)
        assert rng.getstate() == old.getstate()


@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=6).filter(any),
       st.integers(0, 5))
def test_distribution_json_writes_each_mass_as_its_fraction(weights, zeros):
    weights = weights + [0] * zeros
    mu = Distribution.from_weights(Domain(range(len(weights))), weights)
    written = list(distribution_to_json(mu)["mass"].values())
    assert written == [str(Fraction(w, mu.total)) for w in mu.weights]
    assert ("1" in written) == (len([w for w in weights if w]) == 1)
    assert ("0" in written) == (zeros > 0 or 0 in weights)


def test_distribution_json_round_trip():
    mu = Distribution(D4, {0: "1/16", 1: "3/8", 2: "9/16", 3: "0"})
    obj = distribution_to_json(mu)
    assert obj["mass"]["1"] == "3/8"
    assert distribution_from_json(obj) == mu


def test_json_numbers_are_read_as_their_decimal_text():
    obj = {"domain": [0, 1, 2], "mass": {"0": 0.1, "1": 0.7, "2": 2e-1}}
    assert distribution_from_json(obj) == Distribution(Domain([0, 1, 2]),
                                                       {0: "1/10", 1: "7/10", 2: "1/5"})


def test_distribution_json_rejects_two_atoms_with_one_mass_key():
    for atoms in [["0", 0], [(0, 1), "(0,1)"]]:
        first, second = atoms
        message = f"atoms {first!r} and {second!r} have the same mass key {atom_key(first)!r}"
        with pytest.raises(InvalidDistributionError) as err:
            distribution_to_json(Distribution.uniform(Domain(atoms)))
        assert str(err.value) == message
        with pytest.raises(InvalidDistributionError) as err:
            distribution_from_json({"domain": atoms, "mass": {atom_key(second): "1"}})
        assert str(err.value) == message


@pytest.mark.parametrize("depth", [600, 900, 5000])
def test_atoms_nested_too_deep_are_input_errors(depth):
    value, atom = 3, 3
    for _ in range(depth):
        value, atom = [value], (atom,)
    for convert, arg in [(atom_from_json, value), (atom_key, atom), (_mass_keys, Domain([0, atom])),
                         (distribution_to_json, Distribution.uniform(Domain([0, atom]))),
                         (distribution_from_json, {"domain": [0, value], "mass": {"0": "1"}})]:
        with pytest.raises(QifError, match="^atom nested too deep$"):
            convert(arg)


def test_distribution_json_reports_exact_deficit():
    obj = {"domain": [0, 1], "mass": {"0": "1/3", "1": "1/3"}}
    with pytest.raises(InvalidDistributionError, match="1/3"):
        distribution_from_json(obj)


# The two domains a --dist file is read against below: a 2-bit active
# high (int atoms) and a passive 1-bit low with a 2-bit high ((l, h) atoms).
_DIST_CONFIGS = {
    "active": {"high": [{"name": "h", "bits": 2}], "observe": ["o"]},
    "passive": {"high": [{"name": "h", "bits": 2}], "low": [{"name": "l", "bits": 1}],
                "observe": ["o"], "mode": "passive"},
}
_DIST_DOMAINS = {mode: enumerate_domain(config_from_json(cfg))
                 for mode, cfg in _DIST_CONFIGS.items()}
_BAD_MASSES = ["abc", "1/0", "-1/4", "2", [1], None, True, {}, -1, 0.1, 1e-3, "1e-3", 2]


def _listed(atom):
    return [_listed(a) for a in atom] if isinstance(atom, tuple) else atom


def _loosened(value, to_bool: bool):
    """The JSON atom with its last int as a float, or as a bool if it is 0 or 1."""
    if isinstance(value, list):
        return value[:-1] + [_loosened(value[-1], to_bool)]
    return bool(value) if to_bool and value in (0, 1) else float(value)


@st.composite
def _dist_files(draw, domain):
    """A --dist file for ``domain``: its atoms listed in order, permuted,
    cut short, with one int as a float or a bool, or with an atom twice;
    masses from random weights in several spellings, zeros sometimes left
    out, then maybe one bad mass and one unknown key, in any file order."""
    atoms = [_listed(a) for a in domain.atoms]
    index = st.integers(0, len(atoms) - 1)
    shape = draw(st.sampled_from(["same", "permuted", "shorter", "loose", "duplicate"]))
    listed = list(atoms)
    if shape == "permuted":
        listed = draw(st.permutations(atoms))
    elif shape == "shorter":
        listed = atoms[:draw(index)]
    elif shape == "loose":
        i = draw(index)
        listed[i] = _loosened(atoms[i], draw(st.booleans()))
    elif shape == "duplicate":
        listed.insert(draw(index), atoms[draw(index)])
    # A loosened atom is keyed as the file lists it or as the program's atom.
    keyed = draw(st.sampled_from([listed, atoms])) if shape == "loose" else listed
    keys = list(dict.fromkeys(atom_key(atom_from_json(a)) for a in keyed))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys)))
    total = max(sum(weights), 1)
    entries = []
    for key, w in zip(keys, weights):
        spelling = draw(st.sampled_from(["reduced", "unreduced", "absent", "float"]))
        if spelling == "absent" and not w:
            continue
        if spelling == "float" and (w * 4) % total == 0:
            entries.append((key, w / total))
        else:
            entries.append((key, str(Fraction(w, total)) if spelling == "reduced"
                            else f"{w}/{total}"))
    if entries and draw(st.booleans()):
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = (entries[i][0], draw(st.sampled_from(_BAD_MASSES)))
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))),
                       (draw(st.sampled_from(["9", "(7,7)", "1.0", "True"])), "0"))
    if draw(st.booleans()):
        entries = draw(st.permutations(entries))
    return {"domain": listed, "mass": dict(entries)}


def _outcome(read, *args):
    """What ``read`` makes of its arguments: the distribution's atoms (by
    repr, so 1.0 and True differ from 1), weights and total, or the error
    it raises."""
    try:
        mu = read(*args)
    except Exception as exc:   # compared with the reference's, type and text
        return type(exc), str(exc)
    return [repr(a) for a in mu.domain.atoms], mu.weights, mu.total


def _cli_outcome(mode, obj, path) -> tuple:
    cfg, prog = path.with_suffix(".cfg.json"), path.with_suffix(".wh")
    cfg.write_text(json.dumps(_DIST_CONFIGS[mode]))
    prog.write_text("o = h & 1;\n")
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(prog), "--config", str(cfg), "--dist", str(path)])
    return code, out.getvalue(), err.getvalue()


def _check_dist_reader(mode, obj, path):
    """The file reads as the reference reads it: alone, against the
    program's domain (over that very domain object when they match), and
    through ``analyze --dist``, stdout, stderr and exit code alike."""
    domain = _DIST_DOMAINS[mode]
    assert (_outcome(distribution_from_json, obj)
            == _outcome(distribution_from_json_reference, obj))
    got = _outcome(distribution_from_json, obj, domain)
    assert got == _outcome(read_distribution_reference, obj, domain)
    if isinstance(got[0], list):   # a distribution, not an error
        mu = distribution_from_json(obj, domain)
        assert (mu.domain is domain) == (mu.domain == domain)
        if _lists_atoms(obj["domain"], domain.atoms):
            # Read straight off the file's dict: no second Domain, no key map.
            with mock.patch.object(measures, "domain_from_json", side_effect=AssertionError), \
                    mock.patch.object(measures, "_mass_keys", side_effect=AssertionError):
                listed = distribution_from_json(obj, domain)
            assert listed.domain is domain
            assert listed == read_distribution_reference(obj, domain)
    with mock.patch.object(cli, "distribution_from_json", read_distribution_reference):
        want = _cli_outcome(mode, obj, path)
    assert _cli_outcome(mode, obj, path) == want


@pytest.mark.parametrize("mode, obj, message", [
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": "1/2", "3": "1/2"}}, None),
    ("active", {"domain": [3, 2, 1, 0], "mass": {"0": "1/2", "3": "1/2"}}, "does not match"),
    ("active", {"domain": [0, 1, 2], "mass": {"0": "1"}}, "does not match"),
    ("active", {"domain": [0, 1.0, 2, 3], "mass": {"1.0": "1"}}, None),
    ("active", {"domain": [0, True, 2, 3], "mass": {"True": "1"}}, None),
    ("active", {"domain": [0, 1.0, 2, 3], "mass": {"1": "1"}}, "unknown atom '1'"),
    ("active", {"domain": [0, True, 2, 3], "mass": {"1": "1"}}, "unknown atom '1'"),
    ("passive", {"domain": [[l, h * 1.0] for l in range(2) for h in range(4)],
                 "mass": {"(0,0)": "1"}}, "unknown atom '(0,0)'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": True}}, "bad mass True for atom '0'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": "1/2", "1": "1/4", "2": "1/6", "3": "1/12"}},
     None),
    ("passive", {"domain": [[0, 0], [0, 1.0]], "mass": {"(0,0)": "1"}}, "does not match"),
    ("active", {"domain": [0, 1, 1, 3], "mass": {"0": "1"}}, "duplicate atom 1"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"3": "abc", "9": "1", "0": [1]}},
     "mass entry for unknown atom '9'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"3": "abc", "0": [1], "9": "1"}},
     "bad mass [1] for atom '0'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": "1/2", "2": "x/2", "1": "-1/2", "3": "1/0"}},
     "bad mass 'x/2' for atom 2"),
    ("passive", {"domain": [[l, h] for l in range(2) for h in range(4)],
                 "mass": {"(1,3)": "1/0", "(0,0)": "1", "(0,2)": "-1"}},
     "bad mass '1/0' for atom (1, 3)"),
    ("passive", {"domain": [[l, h] for l in range(2) for h in range(4)],
                 "mass": {"(1,3)": "1/4", "(0,0)": "1/2", "(0,2)": "1/3"}},
     "total mass is 13/12"),
    # A fault named only once the whole file is scanned: a bad text earlier
    # in domain order than a null that comes first in file order; a negative
    # mass with an unknown key; an off total with numbers among the masses.
    ("active", {"domain": [0, 1, 2, 3], "mass": {"3": None, "0": "abc"}},
     "bad mass None for atom '3'"),
    ("passive", {"domain": [[l, h] for l in range(2) for h in range(4)],
                 "mass": {"(1,3)": None, "(0,1)": "x"}},
     "bad mass None for atom '(1,3)'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": "-1/2", "1": "3/2", "9": "0"}},
     "mass entry for unknown atom '9'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"9": "0", "2": -1, "1": 2}},
     "mass entry for unknown atom '9'"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": 0.1, "1": "1/2", "3": 0}},
     "total mass is 3/5, off from 1 by 2/5"),
    ("passive", {"domain": [[l, h] for l in range(2) for h in range(4)],
                 "mass": {"(0,3)": 1, "(1,0)": 0.25}},
     "total mass is 5/4, off from 1 by -1/4"),
    # A negative mass in a total of 1, and an unknown key with a null mass.
    ("active", {"domain": [0, 1, 2, 3], "mass": {"1": "3/2", "0": "-1/2"}},
     "negative mass -1/2 on atom 0"),
    ("passive", {"domain": [[l, h] for l in range(2) for h in range(4)],
                 "mass": {"(1,2)": -1, "(0,1)": 2}},
     "negative mass -1 on atom (1, 2)"),
    ("active", {"domain": [0, 1, 2, 3], "mass": {"0": "1", "9": None}},
     "mass entry for unknown atom '9'"),
])
def test_dist_reader_keeps_every_rule(tmp_path, mode, obj, message):
    _check_dist_reader(mode, obj, tmp_path / "mu.json")
    code, _, err = _cli_outcome(mode, obj, tmp_path / "mu.json")
    assert code == (0 if message is None else 2)
    assert message is None or message in err


@settings(max_examples=300)
@given(st.sampled_from(sorted(_DIST_DOMAINS)).flatmap(
    lambda mode: st.tuples(st.just(mode), _dist_files(_DIST_DOMAINS[mode]))))
def test_dist_reader_agrees_with_the_reference_on_fuzzed_files(tmp_path_factory, case):
    mode, obj = case
    _check_dist_reader(mode, obj, tmp_path_factory.mktemp("dist") / "mu.json")


# Enumerated domains a listed file is checked against a column at a time:
# bare ints, tuples of highs, (low, high) pairs, and a pair of a tuple of two
# lows with a tuple of two highs.
_LISTED_DOMAINS = {name: enumerate_domain(config_from_json(cfg)) for name, cfg in {
    "int": {"high": [{"name": "h", "bits": 2}], "observe": ["o"]},
    "highs": {"high": [{"name": "h", "bits": 1}, {"name": "g", "bits": 2}], "observe": ["o"]},
    "pair": _DIST_CONFIGS["passive"],
    "two lows, two highs": {"high": [{"name": "h", "bits": 1}, {"name": "g", "bits": 2}],
                            "low": [{"name": "l", "bits": 1}, {"name": "m", "bits": 1}],
                            "observe": ["o"], "mode": "passive"},
}.items()}


def _flat(value):
    return [leaf for v in value for leaf in _flat(v)] if isinstance(value, list) else [value]


# Each change makes one listed atom (the second, or the last) unlike the
# domain's, except where the atom already has that form.
_ATOM_CHANGES = {
    "none": lambda a: a,
    "bool": lambda a: _loosened(a, True),
    "float": lambda a: _loosened(a, False),
    "string": lambda a: str(a),
    "number": lambda a: 0,
    "object": lambda a: {str(i): v for i, v in enumerate(a)} if isinstance(a, list) else {},
    "wrapped": lambda a: [a],
    "shorter": lambda a: a[:-1] if isinstance(a, list) else [],
    "longer": lambda a: a + [0] if isinstance(a, list) else [a, 0],
    "flattened": _flat,
    "inner wrapped": lambda a: [[v] for v in a] if isinstance(a, list) else a,
}


@pytest.mark.parametrize("change", sorted(_ATOM_CHANGES) + ["swapped", "dropped"])
@pytest.mark.parametrize("index", [1, -1])
@pytest.mark.parametrize("name", sorted(_LISTED_DOMAINS))
def test_listed_domain_is_checked_by_column_as_atom_by_atom(name, index, change):
    domain = _LISTED_DOMAINS[name]
    listed = [_listed(a) for a in domain.atoms]
    values = json.loads(json.dumps(listed))
    if change == "swapped":
        values[index], values[index - 1] = values[index - 1], values[index]
    elif change == "dropped":
        del values[index]
    else:
        values[index] = _ATOM_CHANGES[change](values[index])
    # JSON text tells 1, 1.0 and true apart, where == does not.
    same = json.dumps(values) == json.dumps(listed)
    assert _lists_atoms(values, domain.atoms) == lists_atoms_reference(values, domain.atoms) == same
    # The reader then gives the same distribution or error as one that
    # reads every listed file over a domain of its own.
    obj = {"domain": values, "mass": {atom_key(domain.atoms[i]): "1/2" for i in (0, -1)}}
    assert (_outcome(distribution_from_json, obj, domain)
            == _outcome(read_distribution_reference, obj, domain))


# ---------------------------------------------------------------------------
# Entropy family

def test_entropy_of_one_bit_reveal():
    assert entropy(M1, U4) == pytest.approx(0.8112781244591328, abs=1e-3)


def test_entropy_extremes():
    assert entropy(bottom(D4), Distribution.from_weights(D4, [5, 1, 1, 1])) == 0.0
    assert entropy(M2, U4) == pytest.approx(2.0, abs=TOL)


def test_entropy_matches_oracle_on_random_inputs():
    rng = random.Random(99)
    for size in (2, 3, 5, 7):
        d = Domain(range(size))
        for _ in range(20):
            x = random_partition(d, rng)
            mu = Distribution.random(d, rng)
            assert entropy(x, mu) == pytest.approx(entropy_oracle(x, mu), abs=TOL)


def test_conditional_entropy_of_coarsening_is_zero():
    coarse = Partition(D4, [[0, 1], [2, 3]])
    fine = Partition(D4, [[0], [1], [2, 3]])
    assert conditional_entropy(coarse, fine, U4) == 0.0


def test_independent_partitions_have_zero_mutual_information():
    d = Domain([(i, j) for i in range(2) for j in range(2)])
    mu = Distribution.uniform(d)
    x = kernel(d, lambda a: a[0])
    y = kernel(d, lambda a: a[1])
    assert abs(mutual_information(x, y, mu)) <= TOL
    assert conditional_entropy(x, y, mu) == pytest.approx(entropy(x, mu), abs=TOL)


def test_joint_entropy_worked_values():
    assert joint_entropy(A, B, U1234) == pytest.approx(2.0, abs=TOL)
    assert entropy(A, U1234) == pytest.approx(1.0, abs=TOL)
    assert entropy(B, U1234) == pytest.approx(1.0, abs=TOL)
    assert entropy(meet(A, B), U1234) == 0.0
    # the weakened inclusion-exclusion inequality is tight here
    assert joint_entropy(A, B, U1234) == pytest.approx(
        entropy(A, U1234) + entropy(B, U1234) - entropy(meet(A, B), U1234), abs=TOL)


def test_conditional_entropy_matches_oracle():
    rng = random.Random(5)
    d = Domain(range(5))
    for _ in range(25):
        x, y = random_partition(d, rng), random_partition(d, rng)
        mu = Distribution.random(d, rng)
        assert conditional_entropy(x, y, mu) == pytest.approx(
            conditional_entropy_oracle(x, y, mu), abs=1e-7)


def test_mutual_information_identity_and_meet_bound():
    rng = random.Random(8)
    d = Domain(range(5))
    for _ in range(25):
        x, y = random_partition(d, rng), random_partition(d, rng)
        mu = Distribution.random(d, rng)
        mi = mutual_information(x, y, mu)
        assert mi == pytest.approx(
            entropy(x, mu) + entropy(y, mu) - joint_entropy(x, y, mu), abs=1e-7)
        # what the two observations agree on is shared information
        assert entropy(meet(x, y), mu) <= mi + TOL


def test_conditional_mutual_information_symmetry():
    rng = random.Random(6)
    d = Domain(range(5))
    for _ in range(15):
        x, y, z = (random_partition(d, rng) for _ in range(3))
        mu = Distribution.from_weights(d, [rng.randint(1, 1000) for _ in d.atoms])
        lhs = conditional_mutual_information(x, y, z, mu)
        rhs = conditional_mutual_information(y, x, z, mu)
        assert lhs == pytest.approx(rhs, abs=1e-7)
        assert lhs >= -TOL


# ---------------------------------------------------------------------------
# Guessing measures

def test_two_try_guessing_worked_example():
    d = Domain(["x1", "x2", "x3", "x4", "x5", "x6"])
    x = Partition(d, [["x1", "x2", "x3", "x4"], ["x5", "x6"]])
    mu = Distribution(d, {"x1": "1/16", "x2": "1/16", "x3": "1/16",
                          "x4": "1/16", "x5": "3/8", "x6": "3/8"})
    assert guess_prob(x, mu, 2) == Fraction(7, 8)


def test_guess_prob_saturates_at_largest_block():
    mu = Distribution.from_weights(D4, [1, 2, 3, 4])
    x = Partition(D4, [[0, 1], [2, 3]])
    assert guess_prob(x, mu, 2) == 1
    assert guess_prob(x, mu, 9) == 1
    assert guess_prob(top(D4), mu, 1) == 1


def test_guess_prob_rejects_zero_tries():
    with pytest.raises(ValueError):
        guess_prob(M1, U4, 0)


def test_guess_prob_matches_best_subset_oracle():
    rng = random.Random(17)
    d = Domain(range(6))
    for _ in range(25):
        x = random_partition(d, rng)
        mu = Distribution.random(d, rng)
        for n in (1, 2, 3):
            assert guess_prob(x, mu, n) == guess_prob_oracle(x, mu, n)


def test_expected_guesses_worked_examples():
    d = Domain(["a", "b", "c", "d"])
    mu = Distribution(d, {"a": "1/2", "b": "1/4", "c": "1/8", "d": "1/8"})
    assert expected_guesses(bottom(d), mu) == Fraction(15, 8)
    assert expected_guesses(Partition(d, [["a", "d"], ["b", "c"]]), mu) == Fraction(10, 8)
    assert expected_guesses(top(d), mu) == 1


def test_expected_guesses_matches_best_order_oracle():
    rng = random.Random(23)
    d = Domain(range(5))
    for _ in range(25):
        x = random_partition(d, rng)
        mu = Distribution.random(d, rng)
        assert expected_guesses(x, mu) == expected_guesses_oracle(x, mu)


def test_tie_order_between_equal_masses_is_irrelevant():
    d1 = Domain(["a", "b", "c", "d"])
    d2 = Domain(["a", "c", "b", "d"])   # equal-mass atoms b, c swapped
    mass = {"a": Fraction(1, 3), "b": Fraction(1, 6),
            "c": Fraction(1, 6), "d": Fraction(1, 3)}
    mu1, mu2 = Distribution(d1, mass), Distribution(d2, mass)
    x1 = Partition(d1, [["a", "b", "c"], ["d"]])
    x2 = Partition(d2, [["a", "b", "c"], ["d"]])
    for n in (1, 2, 3):
        assert guess_prob(x1, mu1, n) == guess_prob(x2, mu2, n)
    assert expected_guesses(x1, mu1) == expected_guesses(x2, mu2)
    assert ge_prime(x1, mu1) == ge_prime(x2, mu2)


# ---------------------------------------------------------------------------
# Leakage measures (two-bit uniform reference values)

def test_me_leakage_reference_values():
    assert me_leakage(M1, U4) == pytest.approx(1.0, abs=1e-3)
    assert me_leakage(M2, U4) == pytest.approx(2.0, abs=1e-3)
    assert me_leakage(bottom(D4), U4) == 0.0


def test_ge_leakage_reference_values():
    assert ge_leakage(M1, U4) == Fraction(3, 4)
    assert ge_leakage(M2, U4) == Fraction(3, 2)
    assert ge_leakage(bottom(D4), U4) == 0


def test_prime_variant_reference_values():
    assert me_prime(M1, U4) == pytest.approx(0.415, abs=1e-3)
    assert ge_prime(M1, U4) == Fraction(5, 4)
    assert me_prime(M2, U4) == pytest.approx(2.0, abs=TOL)
    assert ge_prime(M2, U4) == Fraction(5, 2)
    assert me_prime(bottom(D4), U4) == 0.0
    assert ge_prime(bottom(D4), U4) == 1


@pytest.mark.parametrize("weights", [[1, 1, 1, 1], [0, 0, 7, 0], [5, 1, 1, 3]],
                         ids=["uniform", "point-mass", "skewed"])
def test_one_block_entropy_and_me_prime_are_positive_zero(weights):
    mu = Distribution.from_weights(D4, weights)
    for measure in (entropy, me_prime):
        value = measure(bottom(D4), mu)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, measure.__name__


def test_me_identity_against_direct_form():
    rng = random.Random(31)
    for size in (2, 4, 6):
        d = Domain(range(size))
        for _ in range(20):
            x = random_partition(d, rng)
            mu = Distribution.random(d, rng)
            ratio = one_try_gain(x, mu)
            assert ratio == me_leakage_direct(x, mu)
            # 2^ME multiplies the prior one-try probability into the posterior
            assert ratio * guess_prob(bottom(d), mu, 1) == guess_prob(x, mu, 1)
            assert me_leakage(x, mu) == pytest.approx(
                math.log2(float(ratio)), abs=TOL)


def test_ge_identity_against_direct_form():
    rng = random.Random(37)
    for size in (2, 4, 6):
        d = Domain(range(size))
        for _ in range(20):
            x = random_partition(d, rng)
            mu = Distribution.random(d, rng)
            assert ge_leakage(x, mu) == ge_leakage_direct(x, mu)
            assert ge_leakage(x, mu) >= 0


# ---------------------------------------------------------------------------
# Distance and capacity

def test_distance_to_self_is_zero():
    assert shannon_distance(A, A, U1234) == 0.0


def test_distance_of_unrelated_pair():
    assert shannon_distance(A, B, U1234) == pytest.approx(2.0, abs=TOL)


def test_zero_distance_characterizes_equality_under_positive_mass():
    d = Domain(range(3))
    mu = Distribution.from_weights(d, [2, 3, 5])   # strictly positive
    parts = all_partitions(d)
    for x, y in itertools.product(parts, parts):
        dist = shannon_distance(x, y, mu)
        assert dist >= -TOL
        assert (abs(dist) <= TOL) == (x == y)
        assert dist == pytest.approx(shannon_distance(y, x, mu), abs=TOL)


def test_distance_triangle_inequality_sampled():
    rng = random.Random(41)
    d = Domain(range(5))
    for _ in range(50):
        x, y, z = (random_partition(d, rng) for _ in range(3))
        mu = Distribution.random(d, rng)
        assert shannon_distance(x, z, mu) <= (
            shannon_distance(x, y, mu) + shannon_distance(y, z, mu) + TOL)


def test_channel_capacity_values():
    d = Domain(["a", "b", "c", "d"])
    assert channel_capacity(Partition(d, [["a", "b", "c"], ["d"]])) == 1.0
    assert channel_capacity(Partition(d, [["a", "b"], ["c", "d"]])) == 1.0
    assert channel_capacity(bottom(d)) == 0.0
    assert channel_capacity(top(d)) == 2.0


def test_capacity_achieved_exactly_by_one_atom_per_block():
    for blocks in ([[0], [1], [2, 3]],        # 3 blocks: log2(3) irrational
                   [[0, 1], [2, 3]],
                   [[0], [1], [2], [3]],
                   [[0, 1, 2, 3]]):
        x = Partition(D4, blocks)
        mu = capacity_achieving_distribution(x)
        assert entropy(x, mu) == channel_capacity(x)
    # and no sampled distribution beats it
    rng = random.Random(43)
    x = Partition(D4, [[0], [1], [2, 3]])
    for _ in range(50):
        mu = Distribution.random(D4, rng)
        assert entropy(x, mu) <= channel_capacity(x) + TOL


# ---------------------------------------------------------------------------
# Zero mass conventions

def test_zero_mass_atoms_change_nothing():
    d_small = Domain([0, 1, 2])
    d_big = Domain([0, 1, 2, 3])
    mu_small = Distribution.from_weights(d_small, [3, 2, 1])
    mu_big = Distribution(d_big, {0: Fraction(1, 2), 1: Fraction(1, 3),
                                  2: Fraction(1, 6), 3: Fraction(0)})
    x_small = Partition(d_small, [[0, 2], [1]])
    x_big = Partition(d_big, [[0, 2, 3], [1]])   # zero-mass atom 3 joined in
    assert entropy(x_small, mu_small) == entropy(x_big, mu_big)
    for n in (1, 2, 3):
        assert guess_prob(x_small, mu_small, n) == guess_prob(x_big, mu_big, n)
    assert expected_guesses(x_small, mu_small) == expected_guesses(x_big, mu_big)
    assert one_try_gain(x_small, mu_small) == one_try_gain(x_big, mu_big)
    assert ge_leakage(x_small, mu_small) == ge_leakage(x_big, mu_big)
    assert me_prime(x_small, mu_small) == me_prime(x_big, mu_big)
    assert ge_prime(x_small, mu_small) == ge_prime(x_big, mu_big)


# ---------------------------------------------------------------------------
# Integer weights against the Fraction oracles

def test_equal_distributions_from_unreduced_weights():
    d = Domain(range(3))
    a = Distribution.from_weights(d, [2, 2, 0])
    b = Distribution.from_weights(d, [1, 1, 0])
    assert a == b and hash(a) == hash(b)
    assert a.weights == (1, 1, 0) and a.total == 2


def test_uniform_holds_its_weights_at_most_twice():
    # the list of ones and the tuple made of it, no reduced or unpacked copy
    d = Domain.product(range(1 << 18))
    tracemalloc.start()
    try:
        mu = Distribution.uniform(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * sys.getsizeof(mu.weights)


@st.composite
def _measured_pairs(draw):
    """A partition on up to 6 atoms, a distribution, and the same
    distribution built another way.  Weights come from 0..3, so zero and
    tied masses are common; the distribution is built from JSON masses
    written as decimals, from a multiple of the weights (not reduced), or
    from the weights themselves."""
    size = draw(st.integers(1, 6))
    d = Domain(range(size))
    labels = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    x = kernel(d, dict(zip(d.atoms, labels)))
    form = draw(st.sampled_from(["decimal", "scaled", "weights"]))
    if form == "decimal":
        cuts = sorted(draw(st.lists(st.integers(0, 100), min_size=size - 1,
                                    max_size=size - 1)))
        hundredths = [b - a for a, b in zip([0] + cuts, cuts + [100])]
        obj = {"domain": list(d.atoms),
               "mass": {str(a): f"{h // 100}.{h % 100:02d}"
                        for a, h in zip(d.atoms, hundredths)}}
        return x, distribution_from_json(obj), Distribution.from_weights(d, hundredths)
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if not any(weights):
        weights[0] = 1
    mu = Distribution.from_weights(d, weights)
    if form == "scaled":
        k = draw(st.integers(2, 5))
        return x, Distribution.from_weights(d, [k * w for w in weights]), mu
    total = sum(weights)
    return x, mu, Distribution(d, {a: Fraction(w, total) for a, w in zip(d.atoms, weights)})


@given(_measured_pairs())
def test_measures_match_fraction_oracles(case):
    x, mu, twin = case
    assert mu == twin and hash(mu) == hash(twin)
    assert math.gcd(mu.total, *mu.weights) == 1
    assert entropy(x, mu) == entropy_lcm_reference(x, mu)
    for n in range(1, x.domain.size + 2):
        assert guess_prob(x, mu, n) == guess_prob_oracle(x, mu, n)
    assert expected_guesses(x, mu) == expected_guesses_oracle(x, mu)
    assert one_try_gain(x, mu) == me_leakage_direct(x, mu)
    assert ge_leakage(x, mu) == ge_leakage_direct(x, mu)
    # the no-observation prior is the one-block partition's
    prior = bottom(x.domain)
    assert one_try_gain(x, mu) == guess_prob(x, mu, 1) / guess_prob(prior, mu, 1)
    assert ge_leakage(x, mu) == expected_guesses(prior, mu) - expected_guesses(x, mu)
    assert me_prime(x, mu) == me_prime_reference(x, mu)
    assert ge_prime(x, mu) == ge_prime_oracle(x, mu)


@given(_measured_pairs(), st.integers(1, 8))
def test_measure_report_equals_every_public_measure(case, max_tries):
    """The report reads every field off one block statistic; each equals
    the public measure exactly, floats bit for bit.  Up to 6 atoms, so
    ``max_tries`` often passes the largest block."""
    x, mu, _ = case
    r = measure_report(x, mu, max_tries)
    assert r.guess_prob == {n: guess_prob(x, mu, n) for n in range(1, max_tries + 1)}
    exact = ((r.expected_guesses, expected_guesses(x, mu)), (r.ge_leakage, ge_leakage(x, mu)),
             (r.ge_prime, ge_prime(x, mu)))
    assert all(type(a) is Fraction and a == b for a, b in exact)
    floats = ((r.entropy_bits, entropy(x, mu)), (r.me_leakage_bits, me_leakage(x, mu)),
              (r.me_prime_bits, me_prime(x, mu)), (r.channel_capacity_bits, channel_capacity(x)))
    assert all(a.hex() == b.hex() for a, b in floats)


def test_report_and_profile_build_one_statistic(monkeypatch):
    import loiqif.measures as measures
    from loiqif.ordering import _profile

    built = []
    build = measures._Ranked.__init__
    monkeypatch.setattr(measures._Ranked, "__init__",
                        lambda self, x, mu: built.append(x) or build(self, x, mu))
    measure_report(M1, U4, max_tries=8)
    assert built == [M1]
    built.clear()
    _profile(M1, U4, 3)
    assert built == [M1]


# ---------------------------------------------------------------------------
# Monotonicity along refinement (spot check; the exhaustive run is in the
# acceptance suite)

def test_refinement_orders_all_measures():
    rng = random.Random(47)
    d = Domain(range(4))
    pairs = [(x, y) for x in all_partitions(d) for y in all_partitions(d)]
    from loiqif import leq
    for x, y in pairs:
        if not leq(x, y):
            continue
        for _ in range(5):
            mu = Distribution.random(d, rng)
            for n in (1, 2, 3, 4):
                assert guess_prob(x, mu, n) <= guess_prob(y, mu, n)
            assert expected_guesses(y, mu) <= expected_guesses(x, mu)
            assert entropy(x, mu) <= entropy(y, mu) + TOL


# ---------------------------------------------------------------------------
# Report plumbing

def test_measure_report_json_formats():
    r = measure_report(M1, U4)
    obj = measure_report_to_json(r)
    assert obj["guess_prob"] == {"1": "1/2", "2": "3/4", "3": "1", "4": "1"}
    assert obj["expected_guesses"] == "7/4"
    assert obj["entropy_bits"] == "0.811278124"
    assert obj["me_leakage_bits"] == "1"
    assert obj["ge_leakage"] == "3/4"
    assert obj["me_prime_bits"] == "0.415037499"
    assert obj["ge_prime"] == "5/4"
    assert obj["channel_capacity_bits"] == "1"
    json.dumps(obj)   # serializable as-is


def test_report_invariants_on_random_inputs():
    rng = random.Random(53)
    for _ in range(40):
        size = rng.randint(1, 6)
        d = Domain(range(size))
        x = random_partition(d, rng)
        mu = Distribution.random(d, rng)
        r = measure_report(x, mu)
        probs = [r.guess_prob[n] for n in sorted(r.guess_prob)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert all(p <= 1 for p in probs)
        assert r.expected_guesses >= 1
        assert r.ge_leakage >= 0 and r.me_leakage_bits >= 0


def test_format_real_nine_significant_digits():
    assert format_real(0.8112781244591328) == "0.811278124"
    assert format_real(2.0) == "2"


def test_measure_domain_mismatch():
    other = Distribution.uniform(Domain(["a", "b"]))
    with pytest.raises(DomainMismatchError):
        entropy(M1, other)
    with pytest.raises(DomainMismatchError):
        guess_prob(M1, other, 1)
