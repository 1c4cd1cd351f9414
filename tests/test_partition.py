import itertools
import json
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from loiqif import (
    Domain,
    DomainMismatchError,
    InvalidPartitionError,
    MissingMappingError,
    Partition,
    block_count,
    bottom,
    join,
    kernel,
    leq,
    meet,
    top,
)
from loiqif.partition import _Product, atom_key, atom_keys, partition_to_json, relabel

from helpers import (
    BELL,
    all_partitions,
    join_oracle,
    leq_oracle,
    meet_oracle,
    random_partition,
    set_partitions,
)

D4 = Domain([0, 1, 2, 3])
D1234 = Domain([1, 2, 3, 4])
A = Partition(D1234, [[1, 2], [3, 4]])
B = Partition(D1234, [[1, 3], [2, 4]])


# ---------------------------------------------------------------------------
# Domain basics

def test_domain_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Domain([])
    with pytest.raises(ValueError, match="duplicate"):
        Domain(["a", "b", "a"])


def test_domain_order_is_positional():
    d = Domain(["z", "a", "m"])
    assert d.position("z") == 0 and d.position("m") == 2
    for foreign in ("q", [1], ([],)):   # an unhashable atom is foreign too
        assert foreign not in d
        with pytest.raises(InvalidPartitionError, match="not in the domain"):
            d.position(foreign)


# ---------------------------------------------------------------------------
# kernel

def test_kernel_of_branching_map():
    x = kernel(D4, lambda h: 0 if h == 0 else 1)
    assert x.blocks == ((0,), (1, 2, 3))


def test_kernel_constant_is_bottom():
    assert kernel(D4, lambda h: 7) == bottom(D4)


def test_kernel_injective_is_top():
    assert kernel(D4, lambda h: h * 10) == top(D4)


def test_kernel_mapping_and_missing_entry():
    assert kernel(D4, {0: "a", 1: "b", 2: "b", 3: "a"}).blocks == ((0, 3), (1, 2))
    with pytest.raises(MissingMappingError, match="3"):
        kernel(D4, {0: "a", 1: "b", 2: "b"})


@given(st.data())
def test_kernel_invariant_under_observable_renaming(data):
    size = data.draw(st.integers(2, 6))
    d = Domain(range(size))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    f = dict(zip(d.atoms, labels))
    # injective post-map: distinct labels to distinct fresh names
    names = {lab: f"v{lab}" for lab in set(labels)}
    g = {a: names[f[a]] for a in d.atoms}
    assert kernel(d, f) == kernel(d, g)


# ---------------------------------------------------------------------------
# leq / join / meet on the worked examples

def test_leq_block_containment():
    x = Partition(D4, [[0], [1, 2, 3]])
    y = Partition(D4, [[0], [1], [2, 3]])
    assert leq(x, y) and not leq(y, x)


def test_unrelated_pair():
    assert not leq(A, B) and not leq(B, A)


def test_extrema_bound_everything():
    for x in all_partitions(D4):
        assert leq(bottom(D4), x)
        assert leq(x, top(D4))


def test_join_of_unrelated_pair_is_top():
    assert join(A, B) == top(D1234)


def test_meet_of_unrelated_pair_is_bottom():
    assert meet(A, B) == bottom(D1234)


def test_password_join():
    d = Domain(range(8))
    five = Partition(d, [[5], [0, 1, 2, 3, 4, 6, 7]])
    seven = Partition(d, [[7], [0, 1, 2, 3, 4, 5, 6]])
    assert join(five, seven) == Partition(d, [[5], [7], [0, 1, 2, 3, 4, 6]])


def test_meet_identity_and_worked_example():
    x = Partition(D4, [[0], [1], [2, 3]])
    assert meet(top(D4), x) == x
    assert meet(x, top(D4)) == x
    assert meet(top(D4), Partition(D4, [[0], [1], [2, 3]])) == x


def test_join_idempotent():
    assert join(A, A) == A


def test_block_count_and_inclusion_exclusion_failure():
    assert block_count(A) == 2
    assert block_count(bottom(D4)) == 1
    assert block_count(top(D4)) == 4
    # counting blocks does not satisfy inclusion-exclusion
    assert block_count(join(A, B)) == 4
    assert block_count(A) + block_count(B) - block_count(meet(A, B)) == 3


def test_domain_mismatch_rejected():
    other = Partition(D4, [[0, 1], [2, 3]])
    for op in (leq, join, meet):
        with pytest.raises(DomainMismatchError):
            op(A, other)


def test_degenerate_domain_extrema_coincide():
    d = Domain(["only"])
    assert top(d) == bottom(d)


# ---------------------------------------------------------------------------
# Canonical form

def test_canonicalization_is_order_insensitive():
    p = Partition(D1234, [[4, 3], [2, 1]])
    q = Partition(D1234, [[1, 2], [3, 4]])
    assert p == q and hash(p) == hash(q)
    assert p.blocks == ((1, 2), (3, 4))


def test_invalid_partitions_name_the_atom():
    with pytest.raises(InvalidPartitionError, match="2"):
        Partition(D4, [[0, 1, 2], [2, 3]])
    with pytest.raises(InvalidPartitionError, match="3"):
        Partition(D4, [[0, 1, 2]])
    with pytest.raises(InvalidPartitionError, match="9"):
        Partition(D4, [[0, 1, 2, 3], [9]])
    with pytest.raises(InvalidPartitionError, match="empty"):
        Partition(D4, [[0, 1, 2, 3], []])
    with pytest.raises(InvalidPartitionError, match=r"atom \{\} is not in the domain"):
        Partition(Domain([1, 2]), [[{}], [1, 2]])


# Up to seven atoms owned by up to seven blocks, given as a shuffled list of
# blocks with their atoms shuffled.
_BLOCK_LISTS = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.randoms(use_true_random=False)))


def _shuffled_blocks(owner, rng):
    """Domain a0, a1, ... with atom i in block ``owner[i]``, as a shuffled
    block list, and the owner map by atom."""
    atoms = [f"a{i}" for i in range(len(owner))]
    blocks = {}
    for a, o in zip(atoms, owner):
        blocks.setdefault(o, []).append(a)
    shuffled = list(blocks.values())
    rng.shuffle(shuffled)
    for b in shuffled:
        rng.shuffle(b)
    return Domain(atoms), shuffled, dict(zip(atoms, owner))


@given(_BLOCK_LISTS)
def test_constructor_is_the_kernel_of_the_owner_map(case):
    d, blocks, owner = _shuffled_blocks(*case)
    x = Partition(d, blocks)
    assert x == kernel(d, owner)
    assert x.blocks == tuple(sorted((tuple(sorted(b, key=d.position)) for b in blocks),
                                    key=lambda b: d.position(b[0])))


@given(_BLOCK_LISTS, st.sampled_from(["foreign", "repeated", "missing", "empty"]))
def test_one_defect_is_named(case, defect):
    d, blocks, _ = _shuffled_blocks(*case)
    rng = case[1]
    where = rng.randrange(len(blocks))
    if defect == "foreign":
        blocks[where].insert(rng.randrange(len(blocks[where]) + 1), "zz")
        named = "'zz' is not in the domain"
    elif defect == "repeated":
        atom = rng.choice(d.atoms)
        blocks[where].insert(rng.randrange(len(blocks[where]) + 1), atom)
        named = f"{atom!r} appears in more than one block"
    elif defect == "missing":
        atom = blocks[where].pop(rng.randrange(len(blocks[where])))
        if not blocks[where]:
            del blocks[where]
        named = f"{atom!r} is not covered by any block"
    else:
        blocks.insert(where, [])
        named = "empty block"
    with pytest.raises(InvalidPartitionError, match=named):
        Partition(d, blocks)


# ---------------------------------------------------------------------------
# Order and lattice laws

def test_enumeration_matches_bell_numbers():
    for size in (1, 2, 3, 4, 5):
        assert len(list(set_partitions(range(size)))) == BELL[size]


def test_partial_order_laws_up_to_size_five():
    for size in (2, 3, 4, 5):
        parts = all_partitions(Domain(range(size)))
        assert len(parts) == BELL[size]
        rel = [[leq(x, y) for y in parts] for x in parts]
        for i, x in enumerate(parts):
            assert rel[i][i]
            for j, y in enumerate(parts):
                if rel[i][j] and rel[j][i]:
                    assert x == y
        n = len(parts)
        for i in range(n):
            for j in range(n):
                if not rel[i][j]:
                    continue
                for k in range(n):
                    if rel[j][k]:
                        assert rel[i][k]


def _check_lattice_laws(x, y):
    assert join(x, y) == join(y, x)
    assert meet(x, y) == meet(y, x)
    assert join(x, x) == x and meet(x, x) == x
    assert join(x, meet(x, y)) == x          # absorption
    assert meet(x, join(x, y)) == x
    assert leq(x, y) == (join(x, y) == y) == (meet(x, y) == x)
    assert leq(x, join(x, y)) and leq(meet(x, y), x)


def test_lattice_laws_exhaustive_up_to_size_four():
    for size in (2, 3, 4):
        parts = all_partitions(Domain(range(size)))
        for x, y in itertools.product(parts, parts):
            _check_lattice_laws(x, y)
        for x, y, z in itertools.product(parts, parts, parts):
            assert join(join(x, y), z) == join(x, join(y, z))
            assert meet(meet(x, y), z) == meet(x, meet(y, z))


def test_lattice_laws_randomized_size_eight():
    d = Domain(range(8))
    parts = all_partitions(d)
    assert len(parts) == BELL[8]
    rng = random.Random(20240811)
    for _ in range(150):
        x, y = rng.choice(parts), rng.choice(parts)
        _check_lattice_laws(x, y)
        assert join(x, y) == join_oracle(x, y)
        assert meet(x, y) == meet_oracle(x, y)
        assert leq(x, y) == leq_oracle(x, y)


@given(st.data())
def test_operations_agree_with_relation_oracles(data):
    size = data.draw(st.integers(2, 6))
    d = Domain(range(size))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_partition(d, rng)
    y = random_partition(d, rng)
    assert leq(x, y) == leq_oracle(x, y)
    assert join(x, y) == join_oracle(x, y)
    assert meet(x, y) == meet_oracle(x, y)


# ---------------------------------------------------------------------------
# JSON

def test_partition_json_round_trip():
    obj = partition_to_json(A)
    assert obj == {"domain": (1, 2, 3, 4), "blocks": ((1, 2), (3, 4))}


def test_tuple_atoms_survive_json():
    d = Domain([(0, 0), (0, 1), (1, 0), (1, 1)])
    p = Partition(d, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
    assert json.loads(json.dumps(partition_to_json(p))) == {
        "domain": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "blocks": [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]}


@pytest.mark.parametrize("parts", [
    [range(5)],
    [range(3), range(2, 6), range(4)],
    [_Product([range(2), range(3)]), range(2)],
    [range(1), _Product([range(3), _Product([range(7, 8), range(2)])]), range(1)],
    [range(4, 5), range(1), range(3)],
], ids=["single", "several", "nested", "deeply nested", "length-1 parts"])
def test_product_columns_are_the_coordinates_of_its_items(parts):
    product = _Product(parts)
    items = list(product)
    assert items == [product[i] for i in range(len(product))]
    columns = product.columns()
    assert len(columns) == len(parts)
    for k, column in enumerate(product.columns()):
        assert list(column) == [item[k] for item in items]
    assert list(zip(*columns)) == items


@pytest.mark.parametrize("shape", [
    range(5),
    (range(3), range(2, 6), range(4)),
    ((range(2), range(3)), range(2)),
    (range(1), (range(3), (range(7, 8), range(2))), range(1)),
    (),
    ((), range(2)),
], ids=["range", "several", "nested", "deeply nested", "empty", "empty part"])
def test_atom_keys_are_each_atoms_key(shape):
    domain = Domain.product(shape)
    assert list(atom_keys(domain)) == [atom_key(a) for a in domain.atoms]
    listed = Domain(domain.atoms)
    assert list(atom_keys(listed)) == [atom_key(a) for a in domain.atoms]


def test_relabel_keeps_one_copy_of_its_labels():
    # 2^18 keys of 256 values, made as they are read: the labels tuple is
    # built straight from them.  Filling a list first and copying it into
    # the tuple traced 2.1 times the tuple.
    n = 1 << 18
    domain = Domain.product(range(n))
    tracemalloc.start()
    try:
        x = relabel(domain, map(operator.and_, range(n), itertools.repeat(255)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.n_blocks == 256 and x.labels[:300] == tuple(range(256)) + tuple(range(44))
    assert peak <= 1.3 * sys.getsizeof(x.labels)
