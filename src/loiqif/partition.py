"""Exact algebra of finite set partitions under the refinement order.

A ``Domain`` fixes a finite, ordered universe of atoms (the possible
secret states).  A ``Partition`` groups those atoms into disjoint,
covering blocks: two atoms in the same block are indistinguishable to an
observer, atoms in different blocks are distinguished.  All partitions
of one domain form a complete lattice:

* ``leq(X, Y)`` — Y refines X: every block of Y sits inside a block of X,
  so Y distinguishes at least as much as X;
* ``join(X, Y)`` — least upper bound: non-empty pairwise intersections of
  blocks (what both observations together distinguish);
* ``meet(X, Y)`` — greatest lower bound: connected components of the union
  of the two block relations (what both observations agree on);
* ``top``/``bottom`` — all singletons / one block.

A domain is stored one of two ways.  Atoms a caller lists are kept as a
tuple and a dict from atom to position, about 130 bytes per int atom
(more for tuple atoms).  ``Domain.product``, which builds every enumerated
secret space, stores only its value ranges, a few hundred bytes at any
size: atom i is read off the mixed-radix digits of i, an atom's position
is computed back from its values, and iteration makes each atom as it
goes.

A partition is stored as one integer label per domain position, in
restricted-growth form: blocks are numbered in order of their least atom,
so equal partitions have equal label tuples.  Labels are built from keys
only by ``relabel`` (one key per position, numbered by first occurrence),
the constructor's blocks included.  The lattice operations work on labels
alone (``join`` pairs them, ``leq`` checks that the y-to-x label map is a
function and is the one test of the order, ``meet`` is union-find over
block numbers).  The canonical ``blocks`` (atoms in domain order
inside a block, blocks ordered by least atom) are derived from the labels
on first use and cached.  Every value is immutable once built and every
operation is a pure function returning a new value; filling the ``blocks``
cache twice is harmless, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import partial
from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping

Atom = Hashable


class QifError(Exception):
    """Base class for analyzer errors."""


class DomainMismatchError(QifError):
    """Values built over different domains were combined."""


class InvalidPartitionError(QifError):
    """Blocks overlap, miss atoms, or contain unknown or empty entries."""


class MissingMappingError(QifError):
    """A kernel map is undefined on some domain atom."""


class Domain:
    """An ordered universe of distinct atoms.

    Atom identifiers are opaque (strings, ints, tuples, ...); only their
    position in the construction sequence matters.  That order is fixed
    for the lifetime of the domain and drives every canonical form and
    tie-break downstream.

    ``atoms`` is a read-only sequence: the tuple of the atoms a caller
    gives, or, for ``Domain.product``, a ``range`` or a product sequence
    that computes each atom from its position and back.  Equality and
    hashing go by the atoms alone, whatever holds them.
    """

    __slots__ = ("atoms", "_find")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: Sequence[Atom] = tuple(atoms)
        if not self.atoms:
            raise ValueError("a domain needs at least one atom")
        pos: dict[Atom, int] = {a: i for i, a in enumerate(self.atoms)}
        if len(pos) != len(self.atoms):
            seen: set[Atom] = set()
            for a in self.atoms:
                if a in seen:
                    raise ValueError(f"duplicate atom {a!r} in domain")
                seen.add(a)
        self._find: Callable[[Atom], int] = pos.__getitem__

    @classmethod
    def product(cls, shape: range | tuple) -> Domain:
        """Every value of ``shape`` in lexicographic order: the ints of a
        range, or for a tuple of shapes, the tuples holding one value of
        each.  Only the shape is stored: atom i and an atom's position
        are computed from it."""
        d = object.__new__(cls)
        d.atoms = _values(shape)
        if not d.atoms:
            raise ValueError("a domain needs at least one atom")
        d._find = partial(_offset, d.atoms)
        return d

    @property
    def size(self) -> int:
        return len(self.atoms)

    def position(self, atom: Atom) -> int:
        try:
            return self._find(atom)
        except (KeyError, ValueError, TypeError):   # TypeError: an unhashable atom
            raise InvalidPartitionError(f"atom {atom!r} is not in the domain") from None

    def __contains__(self, atom: Atom) -> bool:
        try:
            self._find(atom)
        except (KeyError, ValueError, TypeError):
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Domain):
            return False
        a, b = self.atoms, other.atoms
        if type(a) is type(b):      # tuples, ranges and products each compare by content
            return a == b
        return len(a) == len(b) and all(map(operator.eq, a, b))

    def __hash__(self) -> int:
        atoms = self.atoms
        return hash((len(atoms), atoms[0], atoms[-1]))

    def __repr__(self) -> str:
        return f"Domain({list(self.atoms)!r})"


def _values(shape: range | tuple) -> Sequence:
    return shape if isinstance(shape, range) else _Product(map(_values, shape))


def _offset(values: Sequence, value) -> int:
    """Position of ``value`` in a range or a ``_Product``, found the way a
    dict finds a key, by hash and then equality (an int is its own hash
    below 2^61 - 1); ValueError or TypeError when it is absent."""
    if isinstance(values, _Product):
        if not isinstance(value, tuple) or len(value) != len(values.parts):
            raise ValueError(f"{value!r} is not in the product")
        return sum(_offset(part, v) * s for part, v, s in zip(values.parts, value, values._strides))
    i = values.index(value if type(value) is int else hash(value))
    if values[i] != value:
        raise ValueError(f"{value!r} is not in the range")
    return i


def _digits(part: Sequence, stride: int, cycles: int) -> Iterator:
    """One digit of a product's items in order: each value of ``part``
    ``stride`` times in a row, the whole ``cycles`` times over."""
    values = chain.from_iterable(repeat(part, cycles))
    return values if stride == 1 else chain.from_iterable(map(repeat, values, repeat(stride)))


class _Product(Sequence):
    """The tuples holding one value of each part (a range or a
    ``_Product``), last part fastest, held as the parts alone: item i is
    read off the mixed-radix digits of i, and ``_offset`` adds them back
    up."""

    __slots__ = ("parts", "_strides", "_len")

    def __init__(self, parts: Iterable[Sequence]):
        self.parts = tuple(parts)
        strides = []
        n = 1
        for part in reversed(self.parts):
            strides.append(n)
            n *= len(part)
        self._strides = tuple(reversed(strides))
        self._len = n

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(self._len)[i]))
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("domain index out of range")
        return tuple([part[i // s % len(part)] for part, s in zip(self.parts, self._strides)])

    def __iter__(self) -> Iterator[tuple]:
        if not self.parts:
            return iter(((),))
        return zip(*self.columns())

    def columns(self) -> list[Iterator]:
        """One iterator per part over that coordinate of the items in
        order, each made of whole repeated runs of its part."""
        return [_digits(part, s, self._len // (len(part) * s))
                for part, s in zip(self.parts, self._strides)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Product) and self.parts == other.parts


class Partition:
    """Disjoint non-empty blocks covering a domain.

    The constructor accepts blocks in any order; it rejects overlaps,
    gaps, empty blocks and foreign atoms with a diagnostic naming the
    offending atom (the first one met, block by block in the order given),
    and numbers the block that owns each position through ``relabel``.

    ``labels[i]`` is the number of the block holding the atom at domain
    position ``i``, in restricted-growth form (blocks numbered in order of
    their least atom); ``n_blocks`` is the block count.
    """

    __slots__ = ("domain", "labels", "n_blocks", "_blocks")

    def __init__(self, domain: Domain, blocks: Iterable[Iterable[Atom]]):
        owner: list[int | None] = [None] * domain.size   # input block of each position
        for i, block in enumerate(blocks):
            empty = True
            for p in map(domain.position, block):
                if owner[p] is not None:
                    raise InvalidPartitionError(
                        f"atom {domain.atoms[p]!r} appears in more than one block")
                owner[p] = i
                empty = False
            if empty:
                raise InvalidPartitionError("empty block")
        if None in owner:
            missing = domain.atoms[owner.index(None)]
            raise InvalidPartitionError(f"atom {missing!r} is not covered by any block")
        canon = relabel(domain, owner)
        self._set(domain, canon.labels, canon.n_blocks)

    def _set(self, domain: Domain, labels: tuple[int, ...], n_blocks: int) -> None:
        self.domain = domain
        self.labels = labels
        self.n_blocks = n_blocks
        self._blocks = None

    @classmethod
    def _from_labels(cls, domain: Domain, labels: tuple[int, ...], n_blocks: int) -> Partition:
        """Trusted constructor: ``labels`` is already in restricted-growth form."""
        x = object.__new__(cls)
        x._set(domain, labels, n_blocks)
        return x

    @property
    def blocks(self) -> tuple[tuple[Atom, ...], ...]:
        """The blocks in canonical order, atoms in domain order inside each."""
        if self._blocks is None:
            groups: list[list[Atom]] = [[] for _ in range(self.n_blocks)]
            for a, label in zip(self.domain.atoms, self.labels):
                groups[label].append(a)
            self._blocks = tuple(map(tuple, groups))
        return self._blocks

    def block_of(self, atom: Atom) -> int:
        """Index of the block containing ``atom``."""
        return self.labels[self.domain.position(atom)]

    def block_containing(self, atom: Atom) -> tuple[Atom, ...]:
        return self.blocks[self.block_of(atom)]

    def relates(self, a: Atom, b: Atom) -> bool:
        """True when the two atoms share a block."""
        return self.block_of(a) == self.block_of(b)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition)
                and self.domain == other.domain
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.domain, self.labels))

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(str(a) for a in b) + "}" for b in self.blocks)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Partition({self})"


def relabel(domain: Domain, keys: Iterable[Hashable]) -> Partition:
    """Partition grouping domain positions by equal key, one key per
    position in domain order."""
    ids: dict[Hashable, int] = {}
    # A key first seen is numbered by the count of distinct keys before it.
    # The labels go straight into the tuple, with no list of them first.
    labels = tuple(map(ids.setdefault, keys, map(len, repeat(ids))))
    return Partition._from_labels(domain, labels, len(ids))


def kernel(domain: Domain, f: Callable[[Atom], Hashable] | Mapping[Atom, Hashable]) -> Partition:
    """Partition grouping atoms on which ``f`` takes the same value.

    ``f`` may be a callable or a mapping; it must be defined on every
    atom of the domain.
    """
    get = f if callable(f) else f.__getitem__

    def value(a: Atom) -> Hashable:
        try:
            return get(a)
        except KeyError:
            raise MissingMappingError(f"kernel map is undefined on atom {a!r}") from None

    return relabel(domain, map(value, domain.atoms))


def _check_domains(x: Partition, y: Partition) -> None:
    if x.domain != y.domain:
        raise DomainMismatchError("partitions live on different domains")


def leq(x: Partition, y: Partition) -> bool:
    """Refinement order: every block of ``y`` lies inside a block of ``x``,
    i.e. the map from y-labels to x-labels is a function."""
    _check_domains(x, y)
    return len(set(zip(y.labels, x.labels))) == y.n_blocks


def join(x: Partition, y: Partition) -> Partition:
    """Least upper bound: non-empty intersections of an x-block with a y-block."""
    _check_domains(x, y)
    m = y.n_blocks
    return relabel(x.domain, [i * m + j for i, j in zip(x.labels, y.labels)])


def meet(x: Partition, y: Partition) -> Partition:
    """Greatest lower bound: components of the union of both block relations."""
    _check_domains(x, y)
    # Union-find over x-blocks (0 .. nx-1) and y-blocks (nx ..): each atom
    # ties its x-block to its y-block.
    nx = x.n_blocks
    parent = list(range(nx + y.n_blocks))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in dict.fromkeys(zip(x.labels, y.labels)):
        ri, rj = find(i), find(nx + j)
        if ri != rj:
            parent[rj] = ri
    root = [find(i) for i in range(nx)]
    return relabel(x.domain, [root[i] for i in x.labels])


def top(domain: Domain) -> Partition:
    """The all-singletons partition (everything distinguished)."""
    return Partition._from_labels(domain, tuple(range(domain.size)), domain.size)


def bottom(domain: Domain) -> Partition:
    """The one-block partition (nothing distinguished)."""
    return Partition._from_labels(domain, (0,) * domain.size, 1)


def block_count(x: Partition) -> int:
    return x.n_blocks


# ---------------------------------------------------------------------------
# JSON forms
#
# {"domain": [...], "blocks": [[...], ...]}, blocks in canonical order.
# The forms hold the library's own tuples, which json writes as arrays;
# readers take lists or tuples.

def atom_from_json(value) -> Atom:
    """The atom a JSON value stands for, each array as a tuple."""
    if isinstance(value, list):
        try:
            return tuple(atom_from_json(v) for v in value)
        except RecursionError:   # nested as deep as the interpreter's recursion limit
            raise InvalidPartitionError("atom nested too deep") from None
    return value


def atom_key(atom: Atom) -> str:
    """Canonical string form of an atom, used as a JSON object key."""
    if isinstance(atom, tuple):
        try:
            return "(" + ",".join(atom_key(a) for a in atom) + ")"
        except RecursionError:
            raise InvalidPartitionError("atom nested too deep") from None
    return str(atom)


def atom_keys(domain: Domain) -> Iterator[str]:
    """``atom_key`` of each atom, in domain order.  For an enumerated
    domain no atom is built: each key is one ``str.format`` of the atom's
    int values, which run in the order of the flat product of its value
    ranges."""
    if isinstance(domain.atoms, tuple):
        return map(atom_key, domain.atoms)
    ranges: list[range] = []

    def template(values: Sequence) -> str:
        if isinstance(values, range):
            ranges.append(values)
            return "{}"
        return "(" + ",".join(map(template, values.parts)) + ")"

    key = template(domain.atoms)
    return map(key.format, *_Product(ranges).columns()) if ranges else iter((key,))


def domain_to_json(domain: Domain) -> tuple:
    return tuple(domain.atoms)


def domain_from_json(obj) -> Domain:
    if not isinstance(obj, (list, tuple)):
        raise InvalidPartitionError("domain must be a JSON array of atoms")
    try:
        return Domain(atom_from_json(v) for v in obj)
    except (ValueError, TypeError) as exc:
        # duplicate or no atoms, or an unhashable (JSON object) atom
        raise InvalidPartitionError(f"bad domain: {exc}") from None


def partition_to_json(x: Partition) -> dict:
    return {
        "domain": domain_to_json(x.domain),
        "blocks": x.blocks,
    }
