"""Exact character calculus for a cyclic group of prime order l.

A representation of Z/l on a free module over a large-enough unramified
coefficient ring is determined by its character multiplicities: the chosen
generator acts on a rank-one summand by the a-th power of a fixed primitive
l-th root of unity, and we record only the multiplicity of each exponent
a in 0..l-1.  Every rank computed downstream is an integer function of
these exponents, so this module is the arithmetic bedrock of the package.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from math import comb
from operator import lshift, or_

from .record import Record

# largest modulus l accepted: a CharRep holds one int per exponent, so the
# cap bounds every length-l vector before it is allocated
MODULUS_CAP = 1_000_000
# largest prime p accepted: is_prime tests p by trial division up to sqrt(p)
P_CAP = 1_000_000

# ---------------------------------------------------------------------------
# small number theory helpers (kept local: no third-party deps, fast import)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for the sizes here)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(a: int, l: int) -> int:
    """Smallest k >= 1 with a^k = 1 mod l, for a prime l not dividing a.

    The order divides l - 1: start from l - 1 and divide out each prime
    factor q while a^(k/q) = 1 mod l, so the cost is the factorisation of
    l - 1, not one step per power.
    """
    if not is_prime(l):
        raise ValueError(f"modulus {l} is not prime")
    if a % l == 0:
        raise ValueError(f"{a} is not invertible mod {l}")
    k = l - 1
    for q in _prime_factors(k):
        while k % q == 0 and pow(a, k // q, l) == 1:
            k //= q
    return k


def check_p(p: int) -> None:
    """Refuse a p above P_CAP, before its trial-division primality test, and
    a p that is not prime."""
    if p > P_CAP:
        raise ValueError(f"p={p} is above the cap P_CAP={P_CAP}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")


def _check_modulus_size(l: int) -> None:
    """Refuse a modulus below 2 or above MODULUS_CAP, before a length-l
    vector is allocated."""
    if l < 2:
        raise ValueError(f"modulus l={l} must be prime")
    if l > MODULUS_CAP:
        raise ValueError(f"modulus l={l} is above the cap MODULUS_CAP={MODULUS_CAP}")


class PrimeContext(Record):
    """The pair of distinct primes (p, l) with ord(p mod l) divisible by 4.

    Then -1 = p^(ord/2) is an even power of p, so negation keeps the even
    places of each Frobenius orbit a, ap, ap^2, ... together, which makes the
    half-orbit representations of cmbuild self-dual; and ord | l - 1 gives
    l = 1 mod 4, so l >= 5.
    """

    p: int
    l: int
    ord: int

    @staticmethod
    def create(p: int, l: int) -> "PrimeContext":
        check_p(p)
        _check_modulus_size(l)
        if not is_prime(l):
            raise ValueError(f"l={l} is not prime")
        if p == l:
            raise ValueError("p and l must be distinct")
        order = multiplicative_order(p, l)
        if order % 4 != 0:
            raise ValueError(
                f"ord({p} mod {l}) = {order} is not divisible by 4"
            )
        return PrimeContext(p=p, l=l, ord=order)


class CharRep(Record):
    """Multiplicity vector of a Z/l-representation over character exponents.

    mult[a] is the multiplicity of the character sending the generator to
    the a-th power of the fixed primitive l-th root of unity.
    """

    l: int
    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.l < 2 or not is_prime(self.l):
            raise ValueError(f"modulus l={self.l} must be prime")
        if len(self.mult) != self.l:
            raise ValueError("multiplicity vector must have length l")
        if min(self.mult) < 0:
            raise ValueError("multiplicities must be non-negative")

    @staticmethod
    def from_dict(l: int, mults: dict[int, int]) -> "CharRep":
        """Build from {exponent: multiplicity}; exponents reduced mod l."""
        _check_modulus_size(l)
        vec = [0] * l
        for a, m in mults.items():
            vec[a % l] += m
        return CharRep(l, tuple(vec))

    @staticmethod
    def from_exponents(l: int, exponents) -> "CharRep":
        vec = [0] * l
        for a in exponents:
            vec[a % l] += 1
        return CharRep(l, tuple(vec))

    @property
    def rank(self) -> int:
        return sum(self.mult)

    def exponents(self) -> list[int]:
        """The exponent multiset, expanded and sorted."""
        out: list[int] = []
        for a, m in enumerate(self.mult):
            out.extend([a] * m)
        return out

    def support(self) -> list[int]:
        return [a for a, m in enumerate(self.mult) if m > 0]

    def as_dict(self) -> dict[int, int]:
        return {a: m for a, m in enumerate(self.mult) if m > 0}

    # -- text form used by the CLI and certificates: "l=5; 1:1,2:1" --------

    def to_text(self) -> str:
        body = ",".join(f"{a}:{m}" for a, m in enumerate(self.mult) if m > 0)
        return f"l={self.l}; {body}" if body else f"l={self.l};"

    @staticmethod
    def from_text(text: str) -> "CharRep":
        head, _, body = text.partition(";")
        head, body, what = head.strip(), body.strip(), f"text {text!r}"
        try:
            if not head.startswith("l="):
                raise ValueError
            l, mults = int(head[2:]), {}
            for item in body.split(",") if body else ():
                what = f"item {item!r}"
                a_s, _, m_s = item.partition(":")
                a = int(a_s)
                mults[a] = mults.get(a, 0) + int(m_s)
        except ValueError as e:
            raise ValueError(f"bad CharRep {what}") from e
        return CharRep.from_dict(l, mults)

    def __repr__(self) -> str:  # compact, mirrors the text form
        return f"CharRep({self.to_text()!r})"


# ---------------------------------------------------------------------------
# operations


def dual(v: CharRep) -> CharRep:
    """Dual representation: negate every exponent."""
    l = v.l
    return CharRep(l, tuple([v.mult[(-a) % l] for a in range(l)]))


def frobenius_twist(v: CharRep, p: int) -> CharRep:
    """Precompose with g -> g^p: multiply every exponent by p mod l."""
    l = v.l
    if p % l == 0:
        raise ValueError(f"p={p} is not invertible mod l={l}")
    vec = [0] * l
    for a, m in enumerate(v.mult):
        vec[(p * a) % l] += m
    return CharRep(l, tuple(vec))


def field_width(rank: int, top: int) -> int:
    """Bits per exponent field of the packed rows 0..top of a rank-`rank` module.

    One bit wider than C(rank, min(top, rank // 2)), the largest multiplicity
    those rows can hold, so no field ever carries into its neighbour.
    """
    return comb(rank, min(top, rank // 2)).bit_length() + 1


WORD = 64  # bits of one array('Q') item; every unpacked field is whole words
_SWAP = sys.byteorder == "big"  # array('Q') items are native, packed ints little-endian


def field_words(bound: int) -> int:
    """64-bit words per field that holds every int from 0 to bound (at least one)."""
    return max(1, -(-bound.bit_length() // WORD))


def pack_fields(values, words: int) -> int:
    """One int holding the non-negative values, each in a field of `words`
    64-bit words, value 0 lowest; the inverse of unpack_fields.

    The fields are laid out as bytes at C speed: an array('Q') for one word,
    else each value's own little-endian bytes.
    """
    if words == 1:
        data = array("Q", values)
        if _SWAP:
            data.byteswap()
        return int.from_bytes(data, "little")
    return int.from_bytes(
        b"".join(map(int.to_bytes, values, repeat(8 * words), repeat("little"))), "little"
    )


def unpack_fields(packed: int, count: int, words: int) -> list[int]:
    """The `count` fields of `words` 64-bit words each in packed, field 0 first.

    packed is cut into words at C speed (to_bytes and array('Q')), and a
    multi-word field is joined from its words high to low, one map per word,
    so no step shifts the whole packed int.
    """
    data = array("Q", packed.to_bytes(8 * words * count, "little"))
    if _SWAP:
        data.byteswap()
    fields = data[words - 1::words].tolist()
    for t in range(words - 2, -1, -1):
        fields = list(map(or_, map(lshift, fields, repeat(WORD)), data[t::words]))
    return fields


def exterior_table(v: CharRep, top: int | None = None) -> list[tuple[int, ...]]:
    """Multiplicity vectors of Lambda^0 v, ..., Lambda^top v from one DP pass.

    Expands the product of (1 + t*x^a) over the rank(v) exponent instances
    in Z[x]/(x^l - 1); row k is the coefficient of t^k.  Each row is packed,
    one field per exponent, so multiplying by x^a rotates the fields and
    each instance is one big-integer add per row; rows above the instances
    seen so far are still zero and are skipped.  Equivalent to enumerating
    k-element index subsets (the test oracle).  top defaults to rank; rows
    above it are zero.  The fields are field_width rounded up to whole 64-bit
    words, so unpack_fields reads each row at C speed.
    """
    l, rank = v.l, v.rank
    top = rank if top is None else top
    if top < 0:
        raise ValueError("exterior degree must be non-negative")
    words = -(-field_width(rank, top) // WORD)
    width = words * WORD
    mask = (1 << (l * width)) - 1
    rows = [1] + [0] * top
    live = 0
    for a, m in enumerate(v.mult):
        up, down = a * width, (l - a) * width
        for _ in range(m):
            if live < top:
                live += 1
            for j in range(live, 0, -1):
                r = rows[j - 1]
                rows[j] += ((r << up) | (r >> down)) & mask
    # each tuple is built from a list, not a generator: a generator's tuple is
    # allocated at a guessed length and shrunk, and once freed it waits in the
    # free list of its final length until a full garbage collection, which a
    # run that makes little cyclic garbage seldom does; so peak RSS creeps
    return [tuple(unpack_fields(r, l, words)) for r in rows]


def exterior_power(v: CharRep, k: int) -> CharRep:
    """k-th exterior power: row k of exterior_table(v, k)."""
    return CharRep(v.l, exterior_table(v, k)[k])


def invariants_rank(v: CharRep) -> int:
    """Rank of the invariant submodule: the multiplicity of the trivial character."""
    return v.mult[0]


def is_typical(u: CharRep) -> bool:
    """Whether u splits into layers avoiding both members of any inverse pair.

    Equivalent pair-sum criterion: no trivial character, and a single d >= 0
    with mult[a] + mult[-a] = d for every nonzero a (distributing the
    multiset greedily across d sets then realizes the layered form).
    """
    l = u.l
    if l == 2:
        raise ValueError("typicality needs an odd prime modulus")
    if u.mult[0] != 0:
        return False
    d = u.mult[1] + u.mult[l - 1]
    return all(u.mult[a] + u.mult[l - a] == d for a in range(1, (l + 1) // 2))

