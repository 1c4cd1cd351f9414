import itertools
import json
import random
import tracemalloc
from fractions import Fraction

from hypothesis import given, strategies as st

from loiqif import (
    Distribution,
    Domain,
    Partition,
    Relation,
    bottom,
    compare,
    conditional_entropy,
    entropy,
    equivalence_audit,
    expected_guesses,
    find_split_block,
    guess_prob,
    kernel,
    leq,
    top,
    verify_witness,
)
from loiqif.measures import distribution_from_json, distribution_to_json
from loiqif.ordering import (
    OrderWitness,
    order_result_to_json,
    witness_from_json,
    witness_to_json,
)
from loiqif.partition import atom_key, partition_to_json, relabel

from helpers import all_partitions

D1234 = Domain([1, 2, 3, 4])
A = Partition(D1234, [[1, 2], [3, 4]])
B = Partition(D1234, [[1, 3], [2, 4]])


# ---------------------------------------------------------------------------
# compare and find_split_block

def test_incomparable_pair_gets_both_witnesses():
    result = compare(A, B)
    assert result.relation is Relation.INCOMPARABLE
    w = result.witness_xy
    assert w.violated_block == (1, 3)
    assert w.n == 1
    assert w.distribution == Distribution.uniform_on(D1234, [1, 3])
    # under this distribution one guess through A succeeds with certainty
    assert guess_prob(B, w.distribution, 1) == Fraction(1, 2)
    assert guess_prob(A, w.distribution, 1) == 1
    assert result.witness_yx.violated_block == (1, 2)


def test_verify_witness_compares_each_domain_once(monkeypatch):
    # A witness read back from JSON has its own domain object, so each
    # comparison walks the atoms: one per partition, not one per measure.
    w = witness_from_json(witness_to_json(compare(A, B).witness_xy))
    compared = []
    eq = Domain.__eq__
    monkeypatch.setattr(Domain, "__eq__", lambda d, other: compared.append(d) or eq(d, other))
    assert verify_witness(w, A, B)
    assert len(compared) == 2


def test_extrema_compare_with_witness():
    result = compare(bottom(D1234), top(D1234))
    assert result.relation is Relation.COARSER_THAN
    assert result.witness_xy is None
    w = result.witness_yx
    assert w.violated_block == (1, 2, 3, 4)
    assert w.n == 3


def test_equal_partitions_have_no_witnesses():
    result = compare(A, Partition(D1234, [[3, 4], [2, 1]]))
    assert result.relation is Relation.EQUAL
    assert result.witness_xy is None and result.witness_yx is None


def test_finer_than_direction():
    x = Partition(D1234, [[1], [2], [3, 4]])
    y = Partition(D1234, [[1, 2], [3, 4]])
    result = compare(x, y)
    assert result.relation is Relation.FINER_THAN
    assert result.witness_yx is None
    assert verify_witness(result.witness_xy, x, y)


def test_find_split_block():
    assert find_split_block(A, B) == (1, 3)
    assert find_split_block(Partition(D1234, [[1, 2], [3, 4]]), top(D1234)) is None
    whole = Partition(D1234, [[1, 2, 3, 4]])
    assert find_split_block(top(D1234), whole) == (1, 2, 3, 4)
    assert find_split_block(whole, top(D1234)) is None


# ---------------------------------------------------------------------------
# verify_witness

def test_witness_verification_recomputes_all_measures():
    w = compare(A, B).witness_xy
    assert verify_witness(w, A, B)
    mu = w.distribution
    assert entropy(A, mu) > entropy(B, mu)
    assert expected_guesses(A, mu) < expected_guesses(B, mu)


def test_tampered_witness_with_full_block_tries_fails():
    w = compare(A, B).witness_xy
    overfull = OrderWitness(w.distribution, len(w.violated_block), w.violated_block)
    assert not verify_witness(overfull, A, B)


def test_witness_for_wrong_direction_fails():
    w = compare(A, B).witness_xy
    assert not verify_witness(w, B, A)


def test_witness_with_foreign_domain_fails_quietly():
    other = Distribution.uniform(Domain(["p", "q"]))
    assert not verify_witness(OrderWitness(other, 1, ("p",)), A, B)


def _smith_partitions(bits: int = 8):
    d = Domain(range(1 << bits))
    reveal_multiples = kernel(d, lambda h: h if h % 8 == 0 else -1)
    low_five_bits = kernel(d, lambda h: h & 0o37)
    return d, reveal_multiples, low_five_bits


def test_eight_bit_incomparable_pair_witness_values():
    d, x, y = _smith_partitions()
    result = compare(x, y)
    assert result.relation is Relation.INCOMPARABLE
    w = result.witness_yx    # refutes Y below X: mass on X's 224-atom block
    assert len(w.violated_block) == 224
    n = w.n
    assert n == 223
    assert guess_prob(x, w.distribution, n) == Fraction(n, n + 1)
    assert guess_prob(y, w.distribution, n) == 1
    assert verify_witness(w, y, x)
    # the mirrored witness lives on a block of multiples of 8
    w2 = result.witness_xy
    assert all(a % 8 == 0 for a in w2.violated_block)
    assert w2.n == 7
    assert verify_witness(w2, x, y)


def test_distributions_avoiding_multiples_of_eight_favor_the_mask():
    d, x, y = _smith_partitions()
    rng = random.Random(61)
    for _ in range(20):
        weights = {h: 0 if h % 8 == 0 else rng.randint(0, 50) for h in d.atoms}
        if not any(weights.values()):
            continue
        mu = Distribution.from_weights(d, weights)
        # with no mass on the revealed values, one guess through the
        # low-bits mask is always at least as good, for every n
        for n in (1, 2, 7, 200):
            assert guess_prob(y, mu, n) >= guess_prob(x, mu, n)
        assert expected_guesses(y, mu) <= expected_guesses(x, mu)


# ---------------------------------------------------------------------------
# Exhaustive witness soundness at desk scale (size <= 4 here, 5 in the
# acceptance suite)

def test_witnesses_sound_and_complete_up_to_size_four():
    for size in (2, 3, 4):
        parts = all_partitions(Domain(range(size)))
        for x, y in itertools.product(parts, parts):
            result = compare(x, y)
            assert leq(x, y) == (result.relation in (Relation.EQUAL, Relation.COARSER_THAN))
            assert leq(y, x) == (result.relation in (Relation.EQUAL, Relation.FINER_THAN))
            if result.relation is Relation.INCOMPARABLE:
                assert verify_witness(result.witness_xy, x, y)
                assert verify_witness(result.witness_yx, y, x)
            elif result.relation is Relation.COARSER_THAN:
                assert result.witness_xy is None
                assert verify_witness(result.witness_yx, y, x)
            elif result.relation is Relation.FINER_THAN:
                assert result.witness_yx is None
                assert verify_witness(result.witness_xy, x, y)


def test_guessing_order_never_violated_for_refined_pairs():
    rng = random.Random(2024)
    for size in (2, 3, 4):
        d = Domain(range(size))
        parts = all_partitions(d)
        mus = [Distribution.random(d, rng) for _ in range(200)]
        cache = {}
        for p in parts:
            for mi, mu in enumerate(mus):
                cache[p.blocks, mi] = (
                    [guess_prob(p, mu, n) for n in range(1, 5)],
                    expected_guesses(p, mu),
                    entropy(p, mu),
                )
        for x, y in itertools.product(parts, parts):
            if not leq(x, y):
                continue
            for mi in range(len(mus)):
                gx, ngx, hx = cache[x.blocks, mi]
                gy, ngy, hy = cache[y.blocks, mi]
                assert all(a <= b for a, b in zip(gx, gy))
                assert ngy <= ngx
                assert hx <= hy + 1e-9


def test_shannon_order_agrees_with_refinement():
    for size in (2, 3, 4):
        d = Domain(range(size))
        parts = all_partitions(d)
        rng = random.Random(size)
        positive = [Distribution.from_weights(d, [rng.randint(1, 1000) for _ in d.atoms])
                    for _ in range(20)]
        for x, y in itertools.product(parts, parts):
            if leq(x, y):
                for mu in positive:
                    assert conditional_entropy(x, y, mu) <= 1e-9
            else:
                block = find_split_block(x, y)
                mu = Distribution.uniform_on(d, block)
                assert conditional_entropy(x, y, mu) > 1e-3


# ---------------------------------------------------------------------------
# equivalence_audit

def test_audit_on_refined_pair_is_clean():
    x = Partition(D1234, [[1, 2], [3, 4]])
    audit = equivalence_audit(x, top(D1234), trials=1000, seed=1)
    assert audit.relation is Relation.COARSER_THAN
    assert audit.ok and not audit.violations
    assert audit.samples == 1001   # the constructed witness joins the pool


def test_audit_on_incomparable_pair_sees_both_strict_orders():
    audit = equivalence_audit(A, B, trials=50, seed=2)
    assert audit.relation is Relation.INCOMPARABLE
    assert audit.ok
    assert audit.x_ahead >= 1
    assert audit.y_ahead >= 1


def test_audit_on_equal_pair_is_exact():
    audit = equivalence_audit(A, Partition(D1234, [[2, 1], [4, 3]]),
                              trials=200, seed=3)
    assert audit.relation is Relation.EQUAL
    assert audit.ok
    assert audit.x_ahead == audit.y_ahead == 0


def test_audit_reports_every_misordered_measure(monkeypatch):
    import loiqif.ordering as ordering

    coarse = Partition(D1234, [[1, 2], [3, 4]])
    twin = Partition(D1234, [[2, 1], [4, 3]])
    fine = top(D1234)
    cases = ((coarse, fine, Relation.COARSER_THAN),
             (fine, coarse, Relation.FINER_THAN),
             (coarse, twin, Relation.EQUAL),
             (twin, coarse, Relation.EQUAL))
    results = {(id(x), id(y)): compare(x, y) for x, y, _ in cases}
    # Measures that favor ``coarse`` over any other partition, even an
    # equal one: every entry of every sample contradicts the relation.
    values = {"G_n": (Fraction(9, 10), Fraction(1, 10)),
              "NG": (Fraction(11, 10), Fraction(3)),
              "H": (1.5, 0.25)}

    def value(name, p):
        return values[name][0 if p is coarse else 1]

    monkeypatch.setattr(ordering, "compare", lambda x, y: results[id(x), id(y)])
    monkeypatch.setattr(ordering, "_profile", lambda p, mu, n: (
        value("G_n", p), value("G_n", p), -value("NG", p), value("H", p)))
    for x, y, relation in cases:
        audit = equivalence_audit(x, y, trials=5, seed=4)
        assert audit.relation is relation
        assert not audit.ok
        assert len(audit.violations) == 4 * audit.samples
        assert {v.measure for v in audit.violations} == {"G_n", "ME", "NG", "H"}
        for v in audit.violations:
            name = "G_n" if v.measure == "ME" else v.measure
            assert v.detail == f"X {value(name, x)}, Y {value(name, y)}"


def test_audit_is_deterministic_in_the_seed():
    a1 = equivalence_audit(A, B, trials=40, seed=9)
    a2 = equivalence_audit(A, B, trials=40, seed=9)
    assert (a1.x_ahead, a1.y_ahead, a1.samples) == (a2.x_ahead, a2.y_ahead, a2.samples)


def test_audit_peak_does_not_grow_with_trials():
    # The partitions of o = h & 341; and o = (h ^ 77) & 682; at 10 bits.
    # Each sample is measured and dropped before the next is drawn.
    d = Domain(range(1 << 10))
    x, y = kernel(d, lambda h: h & 341), kernel(d, lambda h: (h ^ 77) & 682)
    peaks = {}
    for trials, counts in ((5, (7, 1, 1)), (40, (42, 1, 1)), (200, (202, 2, 3))):
        tracemalloc.start()
        try:
            audit = equivalence_audit(x, y, trials=trials, seed=1)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (audit.samples, audit.x_ahead, audit.y_ahead) == counts
    assert peaks[200] <= 1.5 * peaks[5]


# ---------------------------------------------------------------------------
# JSON forms

def test_witness_json_round_trip():
    w = compare(A, B).witness_xy
    again = witness_from_json(witness_to_json(w))
    assert again == w
    assert verify_witness(again, A, B)


def test_order_result_json_shape():
    obj = order_result_to_json(compare(A, B))
    assert obj["relation"] == "incomparable"
    assert obj["witness_xy"]["n"] == 1
    assert obj["witness_xy"]["violated_block"] == (1, 3)
    obj2 = order_result_to_json(compare(A, A))
    assert obj2 == {"relation": "equal", "witness_xy": None, "witness_yx": None}


# Atoms as a caller may list them: ints, strings and nested tuples of
# them.  A listed domain keeps one mass key per atom so that every
# distribution over it has a JSON form.
_json_atoms = st.recursive(st.integers(-3, 3) | st.text(max_size=2),
                           lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=5)
_json_domains = st.one_of(
    st.lists(_json_atoms, min_size=1, max_size=8, unique_by=atom_key).map(Domain),
    st.sampled_from([range(1), range(5), (range(2), range(3)), (range(2), (range(1), range(2)))])
    .map(Domain.product),
)


@st.composite
def _json_partitions(draw):
    domain = draw(_json_domains)
    return relabel(domain, draw(st.lists(st.integers(0, 3),
                                         min_size=domain.size, max_size=domain.size)))


@st.composite
def _partition_pairs(draw):
    domain = draw(_json_domains)
    labels = st.lists(st.integers(0, 3), min_size=domain.size, max_size=domain.size)
    return relabel(domain, draw(labels)), relabel(domain, draw(labels))


@given(_partition_pairs())
def test_split_block_is_read_off_the_labels(pair):
    x, y = pair
    block = find_split_block(x, y)
    assert y._blocks is None     # the block cache of y stays unfilled
    split = [b for b in y.blocks if len({x.block_of(a) for a in b}) > 1]
    assert block == (split[0] if split else None)
    assert block is None or block == y.blocks[y.block_of(block[0])]


def _listed(atom):
    """An atom with every tuple in it copied into a list."""
    return [_listed(a) for a in atom] if isinstance(atom, tuple) else atom


def _listed_distribution(mu):
    return {"domain": [_listed(a) for a in mu.domain.atoms],
            "mass": {atom_key(a): str(m) for a, m in mu.mass.items()}}


@given(_json_partitions(), st.integers(0, 2**32))
def test_json_forms_hold_tuples_written_as_the_listed_forms(x, seed):
    # The listed forms are the trees the JSON forms were built as when
    # every tuple was copied into a list first.
    block = x.blocks[seed % x.n_blocks]
    mu = Distribution.random(x.domain, random.Random(seed))
    w = OrderWitness(Distribution.uniform_on(x.domain, block), len(block) - 1, block)
    cases = [
        (partition_to_json, None, x,
         {"domain": [_listed(a) for a in x.domain.atoms],
          "blocks": [[_listed(a) for a in b] for b in x.blocks]}),
        (distribution_to_json, distribution_from_json, mu, _listed_distribution(mu)),
        (witness_to_json, witness_from_json, w,
         {"distribution": _listed_distribution(w.distribution), "n": w.n,
          "violated_block": [_listed(a) for a in block]}),
    ]
    for to_json, from_json, value, listed in cases:
        form = to_json(value)
        for indent in (None, 2):
            assert json.dumps(form, indent=indent) == json.dumps(listed, indent=indent)
        if from_json is not None:   # no partition reader: the CLI reads none
            assert from_json(form) == value
            assert from_json(json.loads(json.dumps(form))) == value
