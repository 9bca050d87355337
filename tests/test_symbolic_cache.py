"""The auxiliary factors are built once per shape; each exact part is reduced and formatted once.

pipeline.symbolic_tower and pipeline.symbolic_p1_power keep their results in
one bounded LRU cache each: a factor depends only on the target's shape, so a
cached factor must equal a fresh build.  DPoly keeps one tuple of reduced
ratios, which serialize and display both read, and builds its text once.
"""

from collections import Counter

from hodge_asym import hodgecalc
from hodge_asym.pipeline import (
    SYMBOLIC_CACHE_SIZE,
    choose_aux_case,
    construct,
    serialize_certificate,
    symbolic_p1_power,
    symbolic_tower,
)


def shapes(top: int) -> set[tuple]:
    """(builder, args) of every factor the targets with 3 <= i + j <= top reach."""
    out = set()
    for total in range(3, top + 1):
        for j in range((total + 1) // 2):
            aux = choose_aux_case(total - j, j)
            if aux.kind == "tower":
                out.add((symbolic_tower, (aux.n, aux.s)))
            elif aux.kind == "p1_power":
                out.add((symbolic_p1_power, (j,)))
    return out


def test_a_cached_factor_is_shared_and_equals_a_fresh_build():
    reached = shapes(24)
    assert {builder for builder, _ in reached} == {symbolic_tower, symbolic_p1_power}
    for builder, args in sorted(reached, key=lambda s: (s[0].__name__, s[1])):
        cached = builder(*args)
        assert builder(*args) is cached, (builder.__name__, args)
        assert builder.__wrapped__(*args) == cached, (builder.__name__, args)


def test_the_caches_stay_within_their_bound():
    # towers over the line are cheap to build; the p1_power cache has the same bound
    assert symbolic_p1_power.cache_info().maxsize == SYMBOLIC_CACHE_SIZE
    for s in range(SYMBOLIC_CACHE_SIZE + 12):
        symbolic_tower(1, s)
    info = symbolic_tower.cache_info()
    assert info.maxsize == SYMBOLIC_CACHE_SIZE
    assert info.currsize <= SYMBOLIC_CACHE_SIZE


def test_each_exact_part_is_reduced_and_formatted_once(monkeypatch):
    # one construct, whose d_policy displays the exact part, then the certificate's
    # serialization, which serializes and displays it again
    calls = Counter()
    ratio = hodgecalc._ratio

    def counted(num, den):
        calls[num, den] += 1
        return ratio(num, den)

    monkeypatch.setattr(hodgecalc, "_ratio", counted)
    cert = construct(2, 60, 3)
    doc = serialize_certificate(cert)
    expr = cert.delta_result
    polys = [expr.exact, *(p for _, p in expr.opaque)]
    assert expr.exact.degree >= 50
    assert sum(calls.values()) == sum(len(p.nums) for p in polys)
    assert calls == Counter((c, p.den) for p in polys for c in p.nums)
    # and formats it once: d_policy holds the very text that display returns
    assert doc["d_policy"]["exact_d_part"] is expr.exact.display()
