import random
import time
from itertools import takewhile
from math import comb, gcd

import pytest

from hodge_asym.cyclochar import (
    CharRep,
    PrimeContext,
    WORD,
    dual,
    exterior_power,
    exterior_table,
    frobenius_twist,
    invariants_rank,
    is_prime,
    is_typical,
    multiplicative_order,
    pack_fields,
    unpack_fields,
)
from oracles import pair_tensor, stepwise_order, subset_exterior, typical_by_partition


def rep(l, mults):
    return CharRep.from_dict(l, mults)


def test_is_prime_and_order():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(11, 13) == 12
    assert multiplicative_order(4, 5) == 2
    with pytest.raises(ValueError):
        multiplicative_order(5, 5)
    with pytest.raises(ValueError):
        multiplicative_order(2, 9)  # not a prime modulus


def test_is_prime_matches_trial_division():
    # a table answers below 2^10 and trial division above; both against the
    # textbook test, every n < 2*10^5
    primes: list[int] = []
    for n in range(-3, 200_000):
        want = n >= 2 and all(n % q for q in takewhile(lambda q: q * q <= n, primes))
        if want:
            primes.append(n)
        assert is_prime(n) == want, n
    assert len(primes) == 17_984


def test_multiplicative_order_matches_stepwise_definition():
    for l in filter(is_prime, range(2, 2000)):
        if l < 400:
            assert [multiplicative_order(a, l) for a in range(1, l)] == [
                stepwise_order(a, l) for a in range(1, l)
            ], l
            continue
        # above 400, every order from one stepwise walk of a generator g:
        # g^k has order (l-1)/gcd(k, l-1)
        g = next(g for g in range(2, l) if stepwise_order(g, l) == l - 1)
        expected, x = [0] * l, 1
        for k in range(l - 1):
            expected[x] = (l - 1) // gcd(k, l - 1)
            x = x * g % l
        assert [multiplicative_order(a, l) for a in range(1, l)] == expected[1:], l


def test_multiplicative_order_is_fast_at_a_large_modulus():
    t0 = time.monotonic()
    assert multiplicative_order(2, 1_000_000_007) == 500_000_003
    assert time.monotonic() - t0 < 0.1


def test_prime_context():
    ctx = PrimeContext.create(2, 5)
    assert ctx.ord == 4
    with pytest.raises(ValueError):
        PrimeContext.create(2, 7)  # ord(2 mod 7) = 3
    with pytest.raises(ValueError):
        PrimeContext.create(5, 5)
    with pytest.raises(ValueError):
        PrimeContext.create(4, 5)


def test_dual_examples():
    assert dual(rep(5, {1: 1, 4: 1})) == rep(5, {1: 1, 4: 1})
    assert dual(rep(5, {1: 1, 2: 1})) == rep(5, {4: 1, 3: 1})
    assert dual(rep(13, {0: 2})) == rep(13, {0: 2})


def test_frobenius_twist_examples():
    assert frobenius_twist(rep(5, {1: 1, 4: 1}), 2) == rep(5, {2: 1, 3: 1})
    assert frobenius_twist(rep(5, {2: 1, 3: 1}), 2) == rep(5, {4: 1, 1: 1})
    v = rep(5, {1: 1})
    for _ in range(4):  # ord(2 mod 5) = 4
        v = frobenius_twist(v, 2)
    assert v == rep(5, {1: 1})
    with pytest.raises(ValueError):
        frobenius_twist(rep(5, {1: 1}), 10)


def test_exterior_power_examples():
    # frozen from the subset-enumeration oracle
    v = rep(5, {1: 2, 2: 1, 4: 1})
    expected = rep(5, {4: 1, 1: 1, 2: 2})
    assert subset_exterior(v, 3) == expected
    assert exterior_power(v, 3) == expected
    assert invariants_rank(exterior_power(v, 3)) == 0

    w = rep(5, {2: 1, 3: 2, 4: 1})
    expected_w = rep(5, {3: 1, 4: 2, 0: 1})
    assert subset_exterior(w, 3) == expected_w
    assert exterior_power(w, 3) == expected_w
    assert invariants_rank(exterior_power(w, 3)) == 1

    assert exterior_power(v, 0) == rep(5, {0: 1})
    assert exterior_power(v, 5).rank == 0  # k > rank


def test_exterior_table_expands_large_multiplicities_by_binomials():
    # a multiplicity above the top row: the table's DP steps once per instance,
    # and from step top on every step reaches the top row, which must not overflow
    rng = random.Random(17)
    for _ in range(30):
        l = rng.choice([5, 7, 13])
        v = rep(l, {a: rng.randint(0, 7) for a in rng.sample(range(l), k=3)})
        top = rng.randint(1, 3)
        assert exterior_table(v, top) == [subset_exterior(v, k).mult for k in range(top + 1)], (v, top)


def test_invariants_rank_examples():
    assert invariants_rank(rep(5, {0: 3, 2: 1})) == 3
    assert invariants_rank(rep(5, {1: 1, 4: 1})) == 0


def test_is_typical_examples():
    assert is_typical(rep(5, {1: 1, 2: 1})) is True
    assert is_typical(rep(5, {1: 1, 4: 1})) is False
    assert is_typical(rep(5, {1: 1, 2: 1, 4: 1, 3: 1})) is True  # d = 2
    assert is_typical(rep(5, {0: 1, 1: 1, 2: 1})) is False


def test_is_typical_matches_partition_oracle():
    rng = random.Random(7)
    for _ in range(120):
        l = rng.choice([5, 13])
        mults = {a: rng.randint(0, 2) for a in rng.sample(range(l), k=min(4, l - 1))}
        u = rep(l, mults)
        assert is_typical(u) == typical_by_partition(u), u


def random_rep(rng, l, max_rank=8):
    rank = rng.randint(0, max_rank)
    return CharRep.from_exponents(l, [rng.randrange(l) for _ in range(rank)])


def test_algebraic_identities():
    rng = random.Random(11)
    for _ in range(60):
        l = rng.choice([5, 13, 17])
        v = random_rep(rng, l)
        p = rng.choice([2, 3, 7, 11])
        if p % l == 0:
            continue
        assert dual(dual(v)) == v
        assert dual(frobenius_twist(v, p)) == frobenius_twist(dual(v), p)
        t = v
        for _ in range(multiplicative_order(p, l)):
            t = frobenius_twist(t, p)
        assert t == v
        assert invariants_rank(dual(v)) == invariants_rank(v)


def test_exterior_rank_identities():
    rng = random.Random(13)
    for _ in range(30):
        l = rng.choice([5, 13])
        v = random_rep(rng, l, max_rank=7)
        from math import comb

        total = 0
        for k in range(v.rank + 1):
            lam = exterior_power(v, k)
            assert lam.rank == comb(v.rank, k)
            total += lam.rank
        assert total == 2 ** v.rank


def test_exterior_power_of_direct_sum_decomposes():
    # Lambda^3(V + U) = Lambda^3 V + Lambda^2 V x U + V x Lambda^2 U + Lambda^3 U
    rng = random.Random(41)
    for _ in range(40):
        l = rng.choice([5, 13])
        v = random_rep(rng, l, max_rank=5)
        u = random_rep(rng, l, max_rank=5)
        total = CharRep(l, tuple(a + b for a, b in zip(v.mult, u.mult)))
        lhs = exterior_power(total, 3)
        parts = [
            exterior_power(v, 3),
            pair_tensor(exterior_power(v, 2), u),
            pair_tensor(v, exterior_power(u, 2)),
            exterior_power(u, 3),
        ]
        rhs = CharRep(l, tuple(sum(p.mult[a] for p in parts) for a in range(l)))
        assert lhs == rhs


def test_exterior_oracle_equivalence():
    rng = random.Random(17)
    for _ in range(80):
        l = rng.choice([5, 13, 17])
        v = random_rep(rng, l)
        k = rng.randint(0, 4)
        assert exterior_power(v, k) == subset_exterior(v, k)


def test_typical_invariance_under_dual_and_twist():
    rng = random.Random(19)
    for _ in range(60):
        l = rng.choice([5, 13])
        v = random_rep(rng, l, max_rank=6)
        p = rng.choice([2, 3, 7])
        if p % l == 0:
            continue
        t = is_typical(v)
        assert is_typical(dual(v)) == t
        assert is_typical(frobenius_twist(v, p)) == t


def test_text_round_trip():
    v = rep(5, {1: 1, 2: 1})
    assert v.to_text() == "l=5; 1:1,2:1"
    assert CharRep.from_text(v.to_text()) == v
    zero = CharRep(5, (0,) * 5)
    assert zero.to_text() == "l=5;"
    assert CharRep.from_text("l=5;") == zero
    assert CharRep.from_text("l=5; -1:2") == rep(5, {4: 2})
    rng = random.Random(23)
    for _ in range(40):
        v = random_rep(rng, rng.choice([5, 13, 17]))
        assert CharRep.from_text(v.to_text()) == v


def test_validation():
    with pytest.raises(ValueError):
        CharRep(4, (0, 0, 0, 0))  # composite modulus
    with pytest.raises(ValueError):
        CharRep(5, (0, -1, 0, 0, 0))
    with pytest.raises(ValueError):
        CharRep(5, (0, 0, 0))
    with pytest.raises(ValueError):
        is_typical(CharRep(2, (0, 0)))


def test_exterior_table_rows_match_subset_oracle():
    rng = random.Random(23)
    reps = [
        CharRep(5, (0,) * 5),  # rank 0
        # every exponent 0: field 0 of row k holds C(n, k), the fullest a field gets
        rep(13, {0: 9}),
        rep(5, {0: 12}),
    ] + [random_rep(rng, rng.choice([5, 13, 17])) for _ in range(40)]
    for v in reps:
        for top in sorted({0, 2, v.rank // 2, v.rank, v.rank + 2}):
            rows = exterior_table(v, top)
            assert len(rows) == top + 1
            for k, row in enumerate(rows):
                assert CharRep(v.l, row) == subset_exterior(v, k), (v, top, k)
        assert exterior_table(v) == exterior_table(v, v.rank)
    with pytest.raises(ValueError):
        exterior_table(reps[1], -1)


@pytest.mark.parametrize("rank", [67, 68, 131, 132])
def test_exterior_table_at_word_boundaries(rank):
    # C(rank, rank // 2) has 64, 65, 128 and 129 bits: the largest field either
    # just fills its words or needs one word more
    assert comb(rank, rank // 2).bit_length() in (64, 65, 128, 129)
    assert exterior_table(rep(2, {0: rank})) == [(comb(rank, k), 0) for k in range(rank + 1)]
    a, b = rank // 2, rank - rank // 2
    expected = [
        tuple(sum(comb(a, k - j) * comb(b, j) for j in range(e, k + 1, 2)) for e in (0, 1))
        for k in range(rank + 1)
    ]
    assert exterior_table(rep(2, {0: a, 1: b})) == expected


@pytest.mark.parametrize("words", [1, 2, 3])
def test_pack_fields_round_trips_through_unpack_fields(words):
    rng = random.Random(words)
    top = 1 << (WORD * words)
    for count in (1, 2, 5, 61):
        # the extremes of a field, 0 and all ones, beside random values
        values = [0, top - 1] + [rng.randrange(top) for _ in range(count)]
        packed = pack_fields(values, words)
        assert packed == sum(v << (i * WORD * words) for i, v in enumerate(values))
        assert unpack_fields(packed, len(values), words) == values
    # a value wider than its field does not fit
    with pytest.raises(OverflowError):
        pack_fields([top], words)
