"""Quantitative valuations of a partition under an exact distribution.

A ``Distribution`` holds one non-negative integer weight per domain
position over a common positive total.  A mass (a ``Fraction``, an
``int``, a ``Decimal`` or a string such as ``"3/8"`` or ``"1e-3"``) becomes
an exact integer pair in one conversion, ``_ratio``: a plain ``"a/b"`` or
``"a"`` by ``int`` alone, anything else through ``_exact``, which bounds a
decimal exponent before it builds anything.  Weights from outside pass one
check, ``_check_weights``; the trusted ``Distribution._checked`` stores all.

The JSON form has one reader, ``distribution_from_json(obj, domain=None)``,
which makes one pass over one domain: an enumerated ``domain`` itself when
the file lists its atoms in order (an int as the same int, a tuple as a
list of the same), with no second ``Domain`` and no map of keys, and
otherwise the domain the file lists.  Each atom's mass is looked up by its
key in the file's own dict, in domain order, and the weights are checked
once.  Only a file with a fault is scanned again, in file order, to name it.

Every measure is a function of one statistic, ``_Ranked``: the positive
integer weights inside each block (blocks come from the partition's
labels), sorted best guess first, whose sums are the block weights.  A
caller that needs several measures builds it once (``measure_report``, the
profile in ``ordering``).  A measure makes one exact ``Fraction`` when it returns.
Every purely probabilistic measure (guessing probabilities, expected
guess counts, guessing-entropy leakage) is therefore exact, and every
probability the API takes or returns is a ``fractions.Fraction``.  Only
logarithmic quantities (entropies, min-entropy leakage, channel capacity,
the information distance) are floats; they are computed from the exact
integers with a single rounding per logarithm and are good to well below
1e-9, the tolerance the test suite pins.  Logs are base 2 throughout:
results are in bits.

Measures implemented, for a partition X under a distribution mu:

* ``entropy``               H(X), over block masses, 0·log 0 = 0;
* ``joint_entropy``         H(X,Y) = H(X ⊔ Y);
* ``conditional_entropy``   H(X|Y) = H(X ⊔ Y) − H(Y);
* ``mutual_information``    I(X;Y) = H(X) − H(X|Y), and the conditional form;
* ``guess_prob``            G_n: chance of guessing the secret within n
                            tries after learning the block;
* ``expected_guesses``      NG: expected number of guesses to pin the
                            secret down exactly, guessing best-first;
* ``me_leakage``            one-try-probability gain, in bits:
                            log2(G_1(X) / G_1(no observation));
* ``ge_leakage``            reduction in expected guesses:
                            NG(no observation) − NG(X);
* ``me_prime`` / ``ge_prime``  the same recipes applied to the blocks of X
                            as if they were the secrets themselves;
* ``shannon_distance``      d(X,Y) = H(X|Y) + H(Y|X), a pseudometric;
* ``channel_capacity``      log2(number of blocks), the maximum of H(X, ·)
                            over all distributions.

Ranking for the guessing measures is by descending mass; the order among
equal masses is provably irrelevant to the values.
"""

from __future__ import annotations

import math
import operator
import random
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .partition import (
    Atom,
    Domain,
    DomainMismatchError,
    InvalidPartitionError,
    Partition,
    QifError,
    _Product,
    atom_keys,
    block_count,
    domain_from_json,
    domain_to_json,
    join,
)


class InvalidDistributionError(QifError):
    """Mass entries are malformed, negative, missing, foreign, or do not
    sum to 1."""


class Distribution:
    """Exact rational probability mass over the atoms of a domain.

    Every atom carries an entry (zero mass is allowed) and the total is
    exactly 1.  Immutable once built.

    Held as non-negative integer ``weights``, one per domain position,
    over a positive ``total``, both divided by their gcd, so equal
    distributions have equal fields: the atom at position i has mass
    ``weights[i] / total``.  ``mass``, ``items()``, indexing and
    ``block_mass`` give masses as ``Fraction``, built on each call.

    A mass becomes exact in one place, ``_ratio``, as an integer pair
    (no ``Fraction`` per atom for a plain ``"a/b"``); every constructor
    reduces its input to integer weights over a total.  Weights given from
    outside pass one check, ``_check_weights``; those built valid
    (``uniform``, ``uniform_on``, ``random``) go straight to ``_checked``.
    """

    __slots__ = ("domain", "weights", "total")

    def __init__(self, domain: Domain, mass: Mapping[Atom, Fraction | int | str | Decimal]):
        _require_known(domain, mass)
        ratios: list[tuple[int, int]] = []
        for a in domain.atoms:
            if a not in mass:
                raise InvalidDistributionError(f"no mass entry for atom {a!r}")
            ratios.append(_ratio(mass[a], a))
        d = math.lcm(*(q for _, q in ratios))
        weights = [p * (d // q) for p, q in ratios]
        self._store(domain, weights, _check_weights(domain, weights, d))

    def _store(self, domain: Domain, weights: Sequence[int], total: int) -> None:
        weights = tuple(weights)   # gcd(*tuple) copies nothing; gcd(total, *list) copies twice
        g = math.gcd(total, math.gcd(*weights))
        self.domain = domain
        self.weights: tuple[int, ...] = weights if g == 1 else tuple(w // g for w in weights)
        self.total: int = total // g

    @classmethod
    def _checked(cls, domain: Domain, weights: Sequence[int], total: int) -> Distribution:
        """Trusted constructor: ``weights`` pass ``_check_weights`` over ``total``."""
        mu = object.__new__(cls)
        mu._store(domain, weights, total)
        return mu

    @classmethod
    def uniform(cls, domain: Domain) -> Distribution:
        return cls._checked(domain, [1] * domain.size, domain.size)

    @classmethod
    def uniform_on(cls, domain: Domain, atoms: Iterable[Atom]) -> Distribution:
        """Uniform over the given atoms, zero elsewhere; a repeated atom
        counts once."""
        support = dict.fromkeys(atoms)
        if not support:
            raise InvalidDistributionError("empty support")
        _require_known(domain, support)
        weights = [0] * domain.size
        for a in support:
            weights[domain.position(a)] = 1
        return cls._checked(domain, weights, len(support))

    @classmethod
    def from_weights(cls, domain: Domain, weights: Mapping[Atom, int] | Sequence[int]) -> Distribution:
        """Normalize non-negative integer weights, a mapping (absent atoms
        weigh 0) or one per atom in domain order, into exact
        probabilities."""
        if isinstance(weights, Mapping):
            _require_known(domain, weights)
            weights = [weights.get(a, 0) for a in domain.atoms]
        weights = list(weights)
        return cls._checked(domain, weights, _check_weights(domain, weights))

    @classmethod
    def random(cls, domain: Domain, rng: random.Random) -> Distribution:
        """Seeded random rational distribution from normalized integer weights.

        Each atom independently gets weight 0 with probability 1/4
        (degenerate corners matter), otherwise a uniform random integer
        from 1 to 1000.  At least one atom stays positive.
        """
        weights = [0 if rng.random() < 0.25 else rng.randint(1, 1000) for _ in range(domain.size)]
        if not any(weights):
            weights[rng.randrange(domain.size)] = rng.randint(1, 1000)
        return cls._checked(domain, weights, sum(weights))

    @property
    def mass(self) -> dict[Atom, Fraction]:
        """Every atom's mass, in domain order, built on each access."""
        return {a: Fraction(w, self.total) for a, w in zip(self.domain.atoms, self.weights)}

    def __getitem__(self, atom: Atom) -> Fraction:
        try:
            i = self.domain.position(atom)
        except InvalidPartitionError:
            raise DomainMismatchError(f"atom {atom!r} is not in the distribution domain") from None
        return Fraction(self.weights[i], self.total)

    def block_mass(self, block: Iterable[Atom]) -> Fraction:
        pos, weights = self.domain.position, self.weights
        return Fraction(sum(weights[pos(a)] for a in block), self.total)

    def items(self):
        return self.mass.items()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Distribution)
                and self.domain == other.domain
                and self.total == other.total
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((self.domain, self.weights, self.total))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {m}" for a, m in self.mass.items())
        return f"Distribution({{{inner}}})"


def _check_weights(domain: Domain, weights: Sequence[int], total: int | None = None) -> int:
    """``total`` (their sum when None) if ``weights`` are one non-negative int
    per atom adding up to it; else the first fault of a wrong count, a non-int,
    a total not positive, a negative weight and a sum off the total."""
    if len(weights) != domain.size:
        raise InvalidDistributionError(
            f"{len(weights)} weights for a domain of {domain.size} atoms")
    for i, w in enumerate(weights):
        if not isinstance(w, int):
            raise InvalidDistributionError(
                f"weight {reprlib.repr(w)} on atom {domain.atoms[i]!r} is not an integer")
    weight_sum = sum(weights)
    if total is None:
        total = weight_sum
    if total <= 0:
        raise InvalidDistributionError("weights must have a positive total")
    for i, w in enumerate(weights):
        if w < 0:
            raise InvalidDistributionError(
                f"negative mass {_rational_text(Fraction(w, total))} on atom {domain.atoms[i]!r}")
    if weight_sum != total:
        q = Fraction(weight_sum, total)
        raise InvalidDistributionError(
            f"total mass is {_rational_text(q)}, off from 1 by {_rational_text(1 - q)}")
    return total


def _require_known(domain: Domain, atoms: Iterable[Atom]) -> None:
    for a in atoms:
        if a not in domain:
            raise InvalidDistributionError(f"mass entry for unknown atom {a!r}")


# Bound on the decimal exponent of a mass string like "1e-5" (CPython's default
# int-string digit limit): 10^e is built at once for 4300 but takes seconds
# for a million.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _ratio(value: Fraction | int | str | Decimal, atom: Atom) -> tuple[int, int]:
    """A mass as an integer numerator over a positive denominator, not
    necessarily in lowest terms.  Text of ASCII digits, alone or over a
    non-zero denominator of ASCII digits after one ``/``, is read by
    ``int`` alone; everything else, and text that ``int`` refuses at the
    int-string digit limit, is read by ``_exact``, so the masses accepted
    and the messages given are ``Fraction``'s."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:
                p, q = int(num), int(den or "1")
            except ValueError:   # past the int-string digit limit; _exact gives the message
                pass
            else:
                if q:
                    return p, q
    v = _exact(value, atom)
    return v.numerator, v.denominator


def _exact(value: Fraction | int | str | Decimal, atom: Atom) -> Fraction:
    """``Fraction(value)``, with the decimal exponent of a string, or of a
    ``Decimal``'s text, read before any power of ten is built: past
    ``MAX_DECIMAL_EXPONENT`` either way, a zero mantissa gives 0 and any
    other is rejected.  Every failure is an ``InvalidDistributionError``
    naming the atom."""
    text = str(value) if isinstance(value, Decimal) else value
    try:
        exponent = _EXPONENT.search(text) if isinstance(text, str) else None
        if exponent is None or abs(e := int(exponent[1])) <= MAX_DECIMAL_EXPONENT:
            return Fraction(text)
        # The same text with every exponent digit 0 reads as the mantissa,
        # and Fraction still checks the whole syntax.
        i, j = exponent.span(1)
        mantissa = Fraction(text[:i] + re.sub(r"\d", "0", text[i:j]) + text[j:])
    except (ValueError, TypeError, ArithmeticError) as exc:
        # Python's message repeats the text after a colon; the prefix below
        # shows it once, shortened.
        reason = str(exc).partition(":")[0]
    else:
        if not mantissa:
            return mantissa
        if e < 0:
            reason = f"decimal exponent below -{MAX_DECIMAL_EXPONENT}"
        elif mantissa < 0:
            reason = f"negative mass {_rational_text(mantissa, e)}"
        else:
            reason = f"total mass is {_rational_text(mantissa, e)}"
    raise InvalidDistributionError(f"bad mass {reprlib.repr(value)} for atom {atom!r}: {reason}")


def _rational_text(q: Fraction, exponent: int = 0) -> str:
    """``str(q * 10**exponent)``, or only its order of magnitude when the
    exact form would run to more than about 60 digits or a power of ten is
    given."""
    if not exponent and max(q.numerator.bit_length(), q.denominator.bit_length()) <= 200:
        return str(q)
    magnitude = exponent + round(math.log10(abs(q.numerator)) - math.log10(q.denominator))
    return f"{'-' if q < 0 else ''}about 10^{magnitude}"


def _log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational, via integer logs for accuracy."""
    return math.log2(q.numerator) - math.log2(q.denominator)


class _Ranked:
    """Positive atom weights of each block of ``x``, in block order, best
    guess first (ties in any order), with ``mu`` kept for the prior; one
    method per formula."""

    def __init__(self, x: Partition, mu: Distribution):
        if x.domain != mu.domain:
            raise DomainMismatchError("partition and distribution domains differ")
        self.mu = mu
        self.blocks: list[list[int]] = [[] for _ in range(x.n_blocks)]
        for label, w in zip(x.labels, mu.weights):
            if w:
                self.blocks[label].append(w)
        for ws in self.blocks:
            ws.sort(reverse=True)

    def entropy(self) -> float:
        positive = [w for w in map(sum, self.blocks) if w]
        # Divided by their gcd, the block weights are counts c_i over the
        # least common denominator d = sum(c_i) of the block masses, and
        # H = log2(d) - sum(c_i log2 c_i)/d.  Uniform over k blocks gives
        # exactly log2(k), and one block log2(1) - 0/1 = +0.0.
        g = math.gcd(*positive)
        counts = [w // g for w in positive]
        d = sum(counts)
        try:
            return math.log2(d) - math.fsum(c * math.log2(c) for c in counts) / d
        except OverflowError:   # d, or a count, past the float range
            return math.log2(d) - math.fsum(c / d * math.log2(c) for c in counts)

    def guess_prob(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError(f"number of tries must be >= 1, got {n}")
        return Fraction(sum(sum(ws[:n]) for ws in self.blocks), self.mu.total)

    def expected_guesses(self) -> Fraction:
        return Fraction(sum(map(_guess_count, self.blocks)), self.mu.total)

    def one_try_gain(self) -> Fraction:
        return self.guess_prob(1) / Fraction(max(self.mu.weights), self.mu.total)

    def ge_leakage(self) -> Fraction:
        prior = Fraction(_guess_count(sorted(self.mu.weights, reverse=True)), self.mu.total)
        return prior - self.expected_guesses()

    def me_prime(self) -> float:
        return _log2_fraction(Fraction(self.mu.total, max(map(sum, self.blocks))))

    def ge_prime(self) -> Fraction:
        return Fraction(_guess_count(sorted(map(sum, self.blocks), reverse=True)), self.mu.total)


def _guess_count(ranked: Iterable[int]) -> int:
    """Sum of i * w_i over weights ranked best guess first: the total
    weight of the guesses needed, one per position."""
    return sum(i * w for i, w in enumerate(ranked, start=1))


def entropy(x: Partition, mu: Distribution) -> float:
    """Shannon entropy of the block masses, in bits."""
    return _Ranked(x, mu).entropy()


def joint_entropy(x: Partition, y: Partition, mu: Distribution) -> float:
    return entropy(join(x, y), mu)


def conditional_entropy(x: Partition, y: Partition, mu: Distribution) -> float:
    """H(X|Y) = H(X ⊔ Y) − H(Y); exactly 0.0 when Y refines X."""
    return entropy(join(x, y), mu) - entropy(y, mu)


def mutual_information(x: Partition, y: Partition, mu: Distribution) -> float:
    return entropy(x, mu) - conditional_entropy(x, y, mu)


def conditional_mutual_information(x: Partition, y: Partition, z: Partition,
                                   mu: Distribution) -> float:
    """I(X;Y|Z) = H(X|Z) − H(X | Y ⊔ Z)."""
    return conditional_entropy(x, z, mu) - conditional_entropy(x, join(y, z), mu)


def guess_prob(x: Partition, mu: Distribution, n: int) -> Fraction:
    """G_n: expected probability of guessing the secret within n tries
    after observing the block, optimal guessing order."""
    return _Ranked(x, mu).guess_prob(n)


def expected_guesses(x: Partition, mu: Distribution) -> Fraction:
    """NG: expected number of guesses to identify the secret exactly,
    guessing likeliest-first within the observed block."""
    return _Ranked(x, mu).expected_guesses()


def one_try_gain(x: Partition, mu: Distribution) -> Fraction:
    """G_1(X) / G_1(no observation), the exact factor by which one
    observation multiplies the one-try guessing probability.  With no
    observation the best guess is the heaviest atom."""
    return _Ranked(x, mu).one_try_gain()


def me_leakage(x: Partition, mu: Distribution) -> float:
    """Min-entropy leakage in bits: log2 of the one-try gain.

    0.0 for the one-block partition (no observation, no gain).
    """
    return _log2_fraction(one_try_gain(x, mu))


def ge_leakage(x: Partition, mu: Distribution) -> Fraction:
    """Guessing-entropy leakage: NG(no observation) − NG(X), exact.  With
    no observation every atom is guessed in order of weight."""
    return _Ranked(x, mu).ge_leakage()


def me_prime(x: Partition, mu: Distribution) -> float:
    """-log2 of the largest block mass (blocks treated as the secrets)."""
    return _Ranked(x, mu).me_prime()


def ge_prime(x: Partition, mu: Distribution) -> Fraction:
    """Expected number of guesses to name the block itself, blocks ranked
    by descending mass (ties by least atom, i.e. canonical block order)."""
    return _Ranked(x, mu).ge_prime()


def shannon_distance(x: Partition, y: Partition, mu: Distribution) -> float:
    """d(X,Y) = H(X|Y) + H(Y|X); zero iff the partitions carry the same
    information under every strictly positive distribution."""
    hj = entropy(join(x, y), mu)
    return (hj - entropy(y, mu)) + (hj - entropy(x, mu))


def channel_capacity(x: Partition) -> float:
    """Maximum possible leakage of the partition: log2(block count)."""
    return math.log2(block_count(x))


def capacity_achieving_distribution(x: Partition) -> Distribution:
    """Uniform over one atom per block; its entropy is exactly the capacity."""
    return Distribution.uniform_on(x.domain, (b[0] for b in x.blocks))


# ---------------------------------------------------------------------------
# Aggregate report

@dataclass(frozen=True)
class MeasureReport:
    """All measures of one partition under one distribution."""

    entropy_bits: float
    guess_prob: dict[int, Fraction]
    expected_guesses: Fraction
    me_leakage_bits: float
    ge_leakage: Fraction
    me_prime_bits: float
    ge_prime: Fraction
    channel_capacity_bits: float


def measure_report(x: Partition, mu: Distribution, max_tries: int = 4) -> MeasureReport:
    r = _Ranked(x, mu)
    return MeasureReport(
        entropy_bits=r.entropy(),
        guess_prob={n: r.guess_prob(n) for n in range(1, max_tries + 1)},
        expected_guesses=r.expected_guesses(),
        me_leakage_bits=_log2_fraction(r.one_try_gain()),
        ge_leakage=r.ge_leakage(),
        me_prime_bits=r.me_prime(),
        ge_prime=r.ge_prime(),
        channel_capacity_bits=channel_capacity(x),
    )


def format_real(v: float) -> str:
    """Reals rendered with 9 significant digits (JSON and text output)."""
    return f"{v:.9g}"


def measure_report_to_json(r: MeasureReport) -> dict:
    return {
        "entropy_bits": format_real(r.entropy_bits),
        "guess_prob": {str(n): str(g) for n, g in r.guess_prob.items()},
        "expected_guesses": str(r.expected_guesses),
        "me_leakage_bits": format_real(r.me_leakage_bits),
        "ge_leakage": str(r.ge_leakage),
        "me_prime_bits": format_real(r.me_prime_bits),
        "ge_prime": str(r.ge_prime),
        "channel_capacity_bits": format_real(r.channel_capacity_bits),
    }


# ---------------------------------------------------------------------------
# Distribution JSON form: {"domain": [...], "mass": {"atom": "3/8", ...}}

def _mass_keys(domain: Domain) -> dict[str, Atom]:
    """Each atom of ``domain`` under its mass key; two atoms with one key are an error."""
    by_key: dict[str, Atom] = {}
    for key, a in zip(atom_keys(domain), domain.atoms):
        if key in by_key:
            raise InvalidDistributionError(
                f"atoms {by_key[key]!r} and {a!r} have the same mass key {key!r}")
        by_key[key] = a
    return by_key


def _mass_text(w: int, total: int) -> str:
    """``str(Fraction(w, total))`` without building the ``Fraction``."""
    g = math.gcd(w, total)
    return f"{w // g}/{total // g}" if total != g else str(w // g)


def distribution_to_json(d: Distribution) -> dict:
    return {
        "domain": domain_to_json(d.domain),
        "mass": {key: _mass_text(w, d.total) for key, w in zip(_mass_keys(d.domain), d.weights)},
    }


# A key the file does not hold, and how many distinct mass texts
# distribution_from_json keeps the weight of (a file's masses repeat: zeros,
# small weights over one total).
_ABSENT = object()
_KNOWN_TEXTS = 4096
# Widest least common denominator of the masses distribution_from_json
# accepts, in bits.  Each exact measure the CLI prints is a ratio of two
# integers no larger than the atom count times that denominator, so for any
# domain of fewer than 2^1995 atoms both stay under CPython's default
# int-string limit of 4300 digits (about 14284 bits).
MAX_DENOMINATOR_BITS = 12288


def distribution_from_json(obj, domain: Domain | None = None) -> Distribution:
    """The one reader of the JSON form.  It reads the file over an enumerated
    ``domain`` itself when the file lists its atoms in order, else over the
    domain the file lists; the result is over ``domain`` whenever the two
    are equal, so one over another domain means a mismatch.  Each atom's
    mass is its key's entry in the file's dict, in domain order: a string
    (``"3/8"``, ``"0.25"``, ``"1e-3"``) or a JSON number, read by
    ``_ratio``; an atom without an entry gets mass 0.

    Errors come in one order: a malformed file or domain; then, in file
    order, an unknown key or a mass that is no number or string; then the
    first bad mass in domain order, the first negative one, a total other
    than 1, and a least common denominator wider than
    ``MAX_DENOMINATOR_BITS``, which names the mass that made it so.  A mass
    that would widen such a denominator further stops the reading at once
    with that last error, so reading takes bounded time per mass.

    Each weight is taken over the least common denominator d of the masses
    so far.  When d grows, the weights before it are scaled up once at the
    end, so no per-atom ratio is kept."""
    if not isinstance(obj, dict) or "domain" not in obj or "mass" not in obj:
        raise InvalidDistributionError('expected {"domain": [...], "mass": {...}}')
    masses = obj["mass"]
    if not isinstance(masses, dict):
        raise InvalidDistributionError('"mass" must be a JSON object keyed by atom')
    if domain is not None and _lists_atoms(obj["domain"], domain.atoms):
        listed, keys = domain, atom_keys(domain)
    else:
        listed = domain_from_json(obj["domain"])
        keys = _mass_keys(listed)
    weights: list[int] = []
    grew: list[tuple[int, int, object]] = []    # (weights so far, d until then, the mass)
    d = 1
    known: dict[str, int] = {}          # weight over d of a mass text
    absent = 0
    negative = False
    for value in map(masses.get, keys, repeat(_ABSENT)):
        w = known.get(value) if type(value) is str else None
        if w is None:
            if value is _ABSENT:
                absent += 1
                weights.append(0)
                continue
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                _name_file_fault(masses, listed)   # this entry, if no earlier one
            # A JSON number stands for its decimal text, not the nearest binary float.
            text = repr(value) if isinstance(value, float) else value
            try:
                p, q = _ratio(text, None)
            except InvalidDistributionError:
                _name_file_fault(masses, listed)
                _ratio(text, listed.atoms[len(weights)])   # raises again, naming the atom
            negative = negative or p < 0
            if d % q:
                if d.bit_length() > MAX_DENOMINATOR_BITS:
                    _too_fine(grew[-1], listed)
                grew.append((len(weights), d, value))
                d = math.lcm(d, q)
                known.clear()
            w = p * (d // q)
            if type(value) is str and len(known) < _KNOWN_TEXTS:
                known[value] = w
        weights.append(w)
    if listed.size - absent != len(masses):
        _name_file_fault(masses, listed)       # a key for no atom
    start = 0
    for end, was, _ in grew:
        weights[start:end] = map((d // was).__mul__, weights[start:end])
        start = end
    if negative or sum(weights) != d:
        _check_weights(listed, weights, d)     # names the fault
    if d.bit_length() > MAX_DENOMINATOR_BITS:
        _too_fine(grew[-1], listed)
    return Distribution._checked(domain if listed == domain else listed, weights, d)


def _too_fine(growth: tuple[int, int, object], listed: Domain) -> None:
    """Raise for the mass that widened the least common denominator past
    ``MAX_DENOMINATOR_BITS``: the last growth, (its atom's position, the
    denominator before it, the mass)."""
    i, _, value = growth
    raise InvalidDistributionError(
        f"bad mass {reprlib.repr(value)} for atom {listed.atoms[i]!r}: the least common "
        f"denominator of the masses up to it is wider than {MAX_DENOMINATOR_BITS} bits")


def _name_file_fault(masses: dict, listed: Domain) -> None:
    """Raise for the first entry, in file order, whose key names no atom of
    ``listed`` or whose mass is no number or string, if there is one."""
    keys = set(atom_keys(listed))
    for key, value in masses.items():
        if key not in keys:
            raise InvalidDistributionError(f"mass entry for unknown atom {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise InvalidDistributionError(
                f"bad mass {reprlib.repr(value)} for atom {key!r}: expected a number or a string")


def _lists_atoms(values, atoms: Sequence) -> bool:
    """True when the JSON array ``values`` holds ``atoms``, a range or a
    ``_Product``, in order, an int as the same int and a tuple as a list of
    the same (a float or a bool never matches): each value's nesting, then
    each int column against that column of the product of innermost ranges."""
    ranges: list[range] = []
    columns: list[list] = []

    def split(values: list, atoms: Sequence) -> bool:
        if isinstance(atoms, range):
            ranges.append(atoms)
            columns.append(values)
            return True
        return (isinstance(atoms, _Product) and set(map(type, values)) <= {list}
                and set(map(len, values)) <= {len(atoms.parts)}
                and all(split(list(map(operator.itemgetter(c), values)), part)
                        for c, part in enumerate(atoms.parts)))

    return (type(values) is list and len(values) == len(atoms) and split(values, atoms)
            and all(set(map(type, column)) == {int} and all(map(operator.eq, column, want))
                    for column, want in zip(columns, _Product(ranges).columns())))
