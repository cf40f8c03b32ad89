"""Section spaces, translation action, isogeny substitution, Chow classes."""

import random

import pytest

from wittram.coeff import finite_field
from wittram.errors import ConsistencyFailure
from wittram.wbar import (
    ChowClass,
    GradedPolynomial,
    chow_mul,
    divisor_ledger,
    group_action_on_sections,
    homogenize_component,
    psi_on_sections,
    psi_pullback,
    pushforward_recursion_check,
    section_dim,
)
from wittram.witt import WittVector, build_table, nth_component_identity_check, witt_add

from oracles import inertia_subgroup_check, section_monomials


def psi_literal_form(p, n):
    """The literal closed form Y_n^p - Y_n + carry_n(Y^p; -Y), lifted to weight p^(n+1)."""
    literal = nth_component_identity_check(build_table(p, n + 1), n)["literal_poly"]
    return homogenize_component(finite_field(p), n + 1, literal, p ** (n + 1))


# ---------- section spaces ----------


def test_section_dim_frozen():
    assert section_dim(2, 1, 1) == 2
    assert section_dim(3, 1, 1) == 2
    assert section_dim(2, 2, 1) == 4
    assert section_dim(3, 2, 1) == 5


def test_section_dim_zero_twist():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            assert section_dim(p, n, 0) == 1


def test_section_monomials_explicit():
    # weight 3 in T, Y_0 (wt 1), Y_1 (wt 3)
    assert section_monomials(3, 2, 1) == [
        (0, 0, 1),
        (0, 3, 0),
        (1, 2, 0),
        (2, 1, 0),
        (3, 0, 0),
    ]


def test_section_monomials_match_dim():
    for p in (2, 3):
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3):
                assert len(section_monomials(p, n, m)) == section_dim(p, n, m)


def test_pushforward_recursion_frozen():
    assert pushforward_recursion_check(2, 1) == {
        "p": 2, "n": 1, "lhs": 4, "constant": 1, "twisted": 3,
    }
    rep = pushforward_recursion_check(3, 1)
    assert (rep["lhs"], rep["constant"], rep["twisted"]) == (5, 1, 4)


def test_pushforward_recursion_sweep():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            pushforward_recursion_check(p, n)


# ---------- graded ring guards ----------


def test_homogeneity_enforced():
    F2 = finite_field(2)
    with pytest.raises(ConsistencyFailure):
        GradedPolynomial(F2, 2, 3, {(0, 1, 0): F2.one()})
    t = GradedPolynomial.t_var(F2, 2)
    y1 = GradedPolynomial.y_var(F2, 2, 1)
    with pytest.raises(ConsistencyFailure):
        t + y1
    assert (t * t).weight == 2
    assert (y1 + y1).is_zero()  # char 2


def test_homogenize_component_guard():
    F2 = finite_field(2)
    table = build_table(2, 2)
    from wittram.witt import asw_component_poly

    comp = asw_component_poly(table, 1)
    with pytest.raises(ConsistencyFailure):
        homogenize_component(F2, 2, comp, 2)  # true weight is 4
    lifted = homogenize_component(F2, 2, comp, 4)
    assert lifted.set_t_one() == comp
    # only Y-slots of the first nvars coordinates lift
    from wittram import intpoly as ip
    from wittram.witt import xvar, yvar

    with pytest.raises(ValueError, match="X-slot"):
        homogenize_component(F2, 2, {ip.var(xvar(0)): 1}, 4)
    with pytest.raises(ValueError, match="beyond"):
        homogenize_component(F2, 2, {ip.var(yvar(2)): 1}, 4)


# ---------- translation action ----------


def _random_section(rng, field, p, n):
    # a random inhomogeneous-free element of the level-n section space
    terms = {}
    for key in section_monomials(p, n, 1):
        c = field.from_int(rng.randrange(p))
        if not c.is_zero():
            terms[key] = c
    return GradedPolynomial(field, n, p ** (n - 1), terms)


def test_action_identity():
    rng = random.Random(11)
    for p in (2, 3):
        field = finite_field(p)
        f = _random_section(rng, field, p, 3)
        zero = (field.zero(),) * 3
        assert group_action_on_sections(p, 2, zero, f) == f


def test_action_translation_frozen():
    F2 = finite_field(2)
    f = GradedPolynomial.y_var(F2, 2, 0)
    a = (F2.one(), F2.zero())
    moved = group_action_on_sections(2, 1, a, f)
    t = GradedPolynomial.t_var(F2, 2)
    assert moved == f + t


def test_action_is_group_action():
    rng = random.Random(23)
    table = build_table(2, 3)
    F2 = finite_field(2)
    for _ in range(12):
        a = WittVector(tuple(F2.from_int(rng.randrange(2)) for _ in range(3)))
        b = WittVector(tuple(F2.from_int(rng.randrange(2)) for _ in range(3)))
        f = _random_section(rng, F2, 2, 3)
        lhs = group_action_on_sections(2, 2, witt_add(a, b, table), f)
        rhs = group_action_on_sections(2, 2, a, group_action_on_sections(2, 2, b, f))
        assert lhs == rhs


def test_action_dehomogenized_is_witt_addition():
    # at T = 1, translating the coordinate functions is coordinate extraction
    # after vector addition
    rng = random.Random(37)
    for p in (2, 3):
        field = finite_field(p)
        table = build_table(p, 3)
        for _ in range(8):
            a = WittVector(
                tuple(field.from_int(rng.randrange(p)) for _ in range(3))
            )
            y = WittVector(
                tuple(field.from_int(rng.randrange(p)) for _ in range(3))
            )
            total = witt_add(y, a, table)
            for j in range(3):
                image = group_action_on_sections(
                    p, 2, a, GradedPolynomial.y_var(field, 3, j)
                )
                value = field.zero()
                for key, c in image.terms.items():
                    term = c
                    for i, e in enumerate(key[1:]):
                        term = term * y[i] ** e if e else term
                    value = value + term
                assert value == total[j]


# ---------- isogeny substitution ----------


def test_psi_frozen_level_zero():
    F2 = finite_field(2)
    psi = psi_on_sections(2, 0)
    assert psi.terms == {
        (0, 2): F2.one(),
        (1, 1): F2.one(),
    }


def test_psi_frozen_level_one_p2():
    F2 = finite_field(2)
    psi = psi_on_sections(2, 1)
    assert psi.terms == {
        (0, 0, 2): F2.one(),
        (2, 0, 1): F2.one(),
        (2, 2, 0): F2.one(),
        (1, 3, 0): F2.one(),
    }
    # the entry-wise-minus closed form drops exactly the negation carry
    lit = psi_literal_form(2, 1)
    diff = psi - lit
    assert diff.terms == {(2, 2, 0): F2.one()}


def test_psi_literal_matches_for_odd_p():
    for n in (0, 1, 2):
        assert psi_on_sections(3, n) == psi_literal_form(3, n)
    assert psi_on_sections(2, 0) == psi_literal_form(2, 0)  # no carry yet
    for n in (1, 2):
        assert psi_on_sections(2, n) != psi_literal_form(2, n)


def test_psi_dehomogenization_contract():
    from wittram.witt import asw_component_poly
    import wittram.intpoly as ip

    for p, n in [(2, 1), (2, 2), (3, 1)]:
        table = build_table(p, n + 1)
        psi = psi_on_sections(p, n)
        assert psi.set_t_one() == ip.p_mod(asw_component_poly(table, n), p)
        assert psi.weight == p ** (n + 1)


def test_psi_constant_translation_invariance():
    # a -> F(a) - a kills every constant vector over the prime field, so the
    # substitution is fixed by the whole translation group, not just the
    # slot-n cyclic cover
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        field = finite_field(p)
        psi = psi_on_sections(p, n)
        for code in range(p ** (n + 1)):
            digits = []
            c = code
            for _ in range(n + 1):
                digits.append(field.from_int(c % p))
                c //= p
            assert group_action_on_sections(p, n, tuple(digits), psi) == psi


def test_psi_extension_translation_moves():
    # over F_4 the isogeny no longer kills (g, 0), so the substitution moves
    F4 = finite_field(2, 2)
    psi = psi_on_sections(2, 1)
    lifted = GradedPolynomial(
        F4, 2, 4, {k: F4.from_int(v.coords[0]) for k, v in psi.terms.items()}
    )
    a = (F4.gen(), F4.zero())
    assert group_action_on_sections(2, 1, a, lifted) != lifted


# ---------- intersection classes ----------


def test_chow_frozen_square():
    x2 = ChowClass.generator(2, 2, 2)
    x1 = ChowClass.generator(2, 2, 1)
    assert chow_mul(x2, x2) == 2 * chow_mul(x2, x1)
    assert chow_mul(x1, x1).is_zero()
    x3 = ChowClass.generator(3, 3, 3)
    sq = chow_mul(x3, x3)
    assert sq.coeffs == {(2, 3): 3}


def test_chow_cascading_reduction():
    # x_2^2 x_2 = p x_2 x_1 x_2 = p^2 x_2 x_1 x_1 ... dies at x_1^2
    p = 3
    x2 = ChowClass.generator(p, 2, 2)
    cube = chow_mul(chow_mul(x2, x2), x2)
    assert cube.is_zero()
    x3 = ChowClass.generator(p, 3, 3)
    cube3 = chow_mul(chow_mul(x3, x3), x3)
    assert cube3.coeffs == {(1, 2, 3): p**3}


def _random_class(rng, p, n):
    coeffs = {}
    indices = list(range(1, n + 1))
    for _ in range(rng.randrange(1, 4)):
        size = rng.randrange(0, n + 1)
        mono = tuple(sorted(rng.sample(indices, size)))
        coeffs[mono] = coeffs.get(mono, 0) + rng.randrange(-5, 6)
    return ChowClass(p, n, coeffs)


def test_chow_ring_axioms_random():
    rng = random.Random(5)
    for p, n in [(2, 3), (3, 4), (5, 2)]:
        for _ in range(10):
            a = _random_class(rng, p, n)
            b = _random_class(rng, p, n)
            c = _random_class(rng, p, n)
            assert chow_mul(a, b) == chow_mul(b, a)
            assert chow_mul(chow_mul(a, b), c) == chow_mul(a, chow_mul(b, c))
            assert chow_mul(a, b + c) == chow_mul(a, b) + chow_mul(a, c)


def test_chow_basis_closure():
    # a product of basis monomials reduces to a multiple of a single one
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 6)
        p = rng.choice([2, 3, 5])
        a = ChowClass(p, n, {tuple(sorted(rng.sample(range(1, n + 1),
                                                     rng.randrange(1, n + 1)))): 1})
        b = ChowClass(p, n, {tuple(sorted(rng.sample(range(1, n + 1),
                                                     rng.randrange(1, n + 1)))): 1})
        prod = chow_mul(a, b)
        assert len(prod.coeffs) <= 1


def test_psi_pullback_scales_by_codimension():
    for p in (2, 3):
        for n in range(1, 6):
            full = range(1, n + 1)
            for size in range(n + 1):
                for mono in _subsets(full, size):
                    cls = ChowClass(p, n, {mono: 1})
                    assert psi_pullback(cls) == p ** len(mono) * cls


def _subsets(pool, size):
    import itertools

    return itertools.combinations(pool, size)


def test_psi_pullback_is_ring_map():
    rng = random.Random(13)
    for _ in range(10):
        a = _random_class(rng, 2, 4)
        b = _random_class(rng, 2, 4)
        assert psi_pullback(chow_mul(a, b)) == chow_mul(
            psi_pullback(a), psi_pullback(b)
        )
        assert psi_pullback(a + b) == psi_pullback(a) + psi_pullback(b)
    assert psi_pullback(ChowClass.one(3, 3)) == ChowClass.one(3, 3)


def test_psi_pullback_top_class_pure():
    # the pullback of the top hyperplane class has no component off itself
    for p, n in [(2, 3), (3, 4), (2, 5)]:
        img = psi_pullback(ChowClass.generator(p, n, n))
        assert set(img.coeffs) == {(n,)}
        assert img.coeffs[(n,)] == p


# ---------- boundary ledger ----------


def test_divisor_ledger_frozen():
    led = divisor_ledger(2, 2)
    x1 = ChowClass.generator(2, 2, 1)
    x2 = ChowClass.generator(2, 2, 2)
    assert led.components[1] == x1
    assert led.components[2] == x2 - 2 * x1
    assert led.boundary_class == x2
    assert led.inertia_orders == {1: 2, 2: 1}


def test_divisor_ledger_depth_one():
    led = divisor_ledger(3, 1)
    assert led.components[1] == ChowClass.generator(3, 1, 1)
    assert led.boundary_class == led.hyperplane


def test_divisor_ledger_telescopes_deep():
    for p in (2, 3, 5):
        for n in range(1, 6):
            led = divisor_ledger(p, n)
            assert led.boundary_class == ChowClass.generator(p, n, n)
            assert led.inertia_orders[1] == p ** (n - 1)


def test_inertia_metadata_example():
    led = divisor_ledger(5, 3)
    assert led.inertia_orders[1] == 25


def test_inertia_subgroup_counts():
    assert inertia_subgroup_check(2, 3, 1)["order"] == 4
    assert inertia_subgroup_check(2, 3, 2)["order"] == 2
    assert inertia_subgroup_check(2, 3, 3)["order"] == 1
    assert inertia_subgroup_check(3, 2, 1)["order"] == 3
    assert inertia_subgroup_check(3, 2, 2)["order"] == 1
