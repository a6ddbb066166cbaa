import random

import pytest

from centertrans.schubert import (
    Cochain,
    GrassmannContext,
    check_heights,
    check_whitney,
    height_w1,
    is_power_of_two,
    min_dimension,
    monomial,
    obstruction_main,
    obstruction_power2free,
    pieri_dual,
    pieri_special,
    special_class,
    unit,
    whitney_defect,
    wn_power,
    zero,
    W,
    WBAR,
)
from centertrans.errors import DomainError


def ctx(n, codim):
    return GrassmannContext(n, codim)


def chain(context, *cocycles):
    return Cochain(context, cocycles)


def test_special_class_values():
    assert special_class(ctx(2, 5), 2, W) == chain(ctx(2, 5), (1, 1))
    assert special_class(ctx(2, 5), 3, WBAR) == chain(ctx(2, 5), (0, 3))
    assert special_class(ctx(3, 2), 0, W) == chain(ctx(3, 2), (0, 0, 0))
    assert special_class(ctx(3, 2), 0, WBAR) == chain(ctx(3, 2), (0, 0, 0))
    # box truncation: no room for a single one when codim = 0
    assert special_class(ctx(3, 0), 2, W).is_zero()
    # the closed forms: w_i = (0,...,0,1,...,1), zero beyond the box, wbar_j = (0,...,0,j)
    for n in range(1, 6):
        for codim in range(0, 7):
            c = ctx(n, codim)
            for i in range(n + 1):
                w = chain(c, (0,) * (n - i) + (1,) * i) if i == 0 or codim else zero(c)
                assert special_class(c, i, W) == w
            for j in range(codim + 1):
                assert special_class(c, j, WBAR) == chain(c, (0,) * (n - 1) + (j,))


def test_special_class_range_errors():
    with pytest.raises(DomainError, match=r"w index 3 outside \[0, 2\]"):
        special_class(ctx(2, 5), 3, W)
    with pytest.raises(DomainError, match=r"wbar index 6 outside \[0, 5\]"):
        special_class(ctx(2, 5), 6, WBAR)
    with pytest.raises(DomainError, match=r"w index -1 outside \[0, 2\]"):
        special_class(ctx(2, 5), -1, W)
    with pytest.raises(DomainError, match="unknown special class variant"):
        special_class(ctx(2, 5), 1, "x")


def test_cocycle_validation():
    with pytest.raises(DomainError):
        chain(ctx(2, 3), (2, 1))  # decreasing
    with pytest.raises(DomainError):
        chain(ctx(2, 3), (0, 4))  # exceeds codim
    with pytest.raises(DomainError):
        chain(ctx(2, 3), (1,))  # wrong length


def test_pieri_special_examples():
    c = ctx(2, 5)
    assert pieri_special(chain(c, (3, 3)), 1) == chain(c, (3, 4))
    assert pieri_special(chain(c, (3, 4)), 1) == chain(c, (4, 4), (3, 5))
    assert pieri_special(chain(ctx(2, 2), (1, 1)), 2).is_zero()


def test_pieri_dual_examples():
    assert pieri_dual(chain(ctx(2, 2), (1, 1)), 2) == chain(ctx(2, 2), (2, 2))
    assert pieri_dual(chain(ctx(2, 2), (0, 1)), 1) == chain(
        ctx(2, 2), (1, 1), (0, 2)
    )
    assert pieri_dual(chain(ctx(1, 2), (2,)), 1).is_zero()


def test_wn_power():
    assert wn_power(ctx(2, 5), 3) == chain(ctx(2, 5), (3, 3))
    assert wn_power(ctx(2, 5), 6).is_zero()
    assert wn_power(ctx(4, 4), 0) == unit(ctx(4, 4))


def test_monomial_examples():
    assert monomial(ctx(2, 5), (2, 3)) == chain(ctx(2, 5), (3, 5), (4, 4))
    assert monomial(ctx(1, 2), (2,)) == chain(ctx(1, 2), (2,))
    assert monomial(ctx(1, 2), (3,)).is_zero()


def test_obstruction_main_examples():
    r = obstruction_main(1, 2)
    assert r["ok"] and (1, 2) in {tuple(a) for a in r["support"]}
    r = obstruction_main(2, 2)
    assert r["ok"] and (3, 5) in {tuple(a) for a in r["support"]}
    r = obstruction_main(2, 3)
    assert r["ok"] and (3, 3, 5) in {tuple(a) for a in r["support"]}


def test_obstruction_power2free_examples():
    r = obstruction_power2free(2, 2)
    assert r["ok"]
    assert r["wn_top_power_support"] == [[3, 3]]
    assert obstruction_power2free(1, 2)["ok"]
    r = obstruction_power2free(3, 4)
    assert r["ok"] and r["wn_top_power_support"] == [[5, 5, 5, 5]]
    # spec-quoted instance N = 10: w_4^6 in G_4(R^10)
    assert not wn_power(ctx(4, 6), 6).is_zero()


def test_height_w1_examples():
    assert height_w1(ctx(1, 2)) == 2
    assert height_w1(ctx(2, 3)) == 6
    assert height_w1(ctx(2, 2)) == 2


def test_check_heights_reports():
    for n in range(1, 4):
        for codim in range(0, 9):
            r = check_heights(ctx(n, codim))
            assert ("expected" in r) == (n <= 2), (n, codim)
            assert r["ok"] and r["height_w1"] == height_w1(ctx(n, codim)), (n, codim)
    assert check_heights(ctx(2, 3))["expected"] == 6  # G_2(R^5): 2^3 - 2
    assert check_heights(ctx(1, 4))["expected"] == 4  # RP^4


def test_check_whitney_reports():
    for n in range(1, 5):
        for codim in range(0, 7):
            r = check_whitney(ctx(n, codim))
            assert r["failing_degrees"] == [] and r["ok"], (n, codim)


def test_min_dimension():
    assert min_dimension(1, 2) == 3
    assert min_dimension(1, 3) == 5
    assert min_dimension(3, 4) == 9
    assert min_dimension(2, 2) == 5
    assert min_dimension(2, 3) == 8
    assert is_power_of_two(4) and not is_power_of_two(6)


def random_cochain(rng, context, max_terms=4):
    cocycles = []
    for _ in range(rng.randint(0, max_terms)):
        a = sorted(rng.randint(0, context.codim) for _ in range(context.n))
        cocycles.append(tuple(a))
    return Cochain(context, set(cocycles))


def random_context(rng, max_n=4, max_codim=6):
    return ctx(rng.randint(1, max_n), rng.randint(1, max_codim))


def _apply(cochain, factor):
    kind, idx = factor
    if kind == W:
        return pieri_dual(cochain, idx)
    return pieri_special(cochain, idx)


def test_product_order_independence():
    # mixed multi-sets of both special classes: the two Pieri rules must
    # commute with each other, not just with themselves
    rng = random.Random(20240811)
    for _ in range(60):
        c = random_context(rng)
        factors = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                factors.append((W, rng.randint(1, c.n)))
            else:
                factors.append((WBAR, rng.randint(1, c.codim)))
        lhs = unit(c)
        for f in factors:
            lhs = _apply(lhs, f)
        rhs = unit(c)
        for f in reversed(factors):
            rhs = _apply(rhs, f)
        assert lhs == rhs, (c, factors)
        rng.shuffle(factors)
        mid = unit(c)
        for f in factors:
            mid = _apply(mid, f)
        assert mid == lhs, (c, factors)


def test_grading():
    rng = random.Random(7)
    for _ in range(40):
        c = random_context(rng)
        i = rng.randint(0, c.n)
        j = rng.randint(0, c.codim)
        prod = pieri_special(special_class(c, i, W), j)
        if not prod.is_zero():
            assert prod.degree() == i + j
    # anything pushed past the top degree dies
    c = ctx(2, 2)
    assert monomial(c, (5, 0)).is_zero()
    assert monomial(c, (0, 3)).is_zero()


def test_whitney_relation_all_small_contexts():
    for n in range(1, 5):
        for codim in range(0, 7):
            c = ctx(n, codim)
            for d in range(1, n + codim + 1):
                assert whitney_defect(c, d).is_zero(), (n, codim, d)


def test_power_formula_matches_iteration():
    for n in range(1, 5):
        for codim in range(1, 7):
            c = ctx(n, codim)
            acc = unit(c)
            for k in range(1, codim + 2):
                acc = pieri_dual(acc, n)
                assert wn_power(c, k) == acc


def test_degree_one_agreement():
    rng = random.Random(99)
    for _ in range(100):
        c = random_context(rng)
        ch = random_cochain(rng, c)
        assert pieri_dual(ch, 1) == pieri_special(ch, 1)


def test_height_lower_bound():
    for n in range(1, 6):
        for codim in range(1, 9):
            assert height_w1(ctx(n, codim)) >= codim


def test_serialization_roundtrip():
    c = monomial(ctx(2, 5), (2, 3))
    data = c.to_dict()
    assert data == {"n": 2, "codim": 5, "support": [[3, 5], [4, 4]]}


def test_add_requires_same_context():
    with pytest.raises(DomainError):
        unit(ctx(2, 2)) + unit(ctx(2, 3))
    assert (unit(ctx(2, 2)) + unit(ctx(2, 2))).is_zero()


def test_zero_class_behaviour():
    z = zero(ctx(3, 3))
    assert z.is_zero() and z.degree() is None
    assert pieri_dual(z, 2).is_zero()
    assert pieri_special(z, 2).is_zero()
