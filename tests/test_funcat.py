import dataclasses
import operator
import os
import random
import subprocess
import sys
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

from zpure.errors import InputError, InternalCheckError
from zpure import funcat, suites
from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    Subgroup,
    direct_sum,
    divisors,
    dual_module,
    hom_module,
    random_hom,
    random_module,
    tensor_modules,
)
from zpure.funcat import (
    CONTRAVARIANT,
    COVARIANT,
    FunctorOnD,
    IndexCategoryD,
    build_index_category,
    coend_tensor,
    dual_functor,
    dual_of_hom_check,
    fp_functor_from_map,
    fp_induced,
    fp_value,
    hom_tensor_duality_check,
    hom_tensor_duality_map,
    kan_eval,
    nat_transformations,
    postcompose,
    precompose,
    random_contra_functor,
    random_functor,
    restrict_module,
    tensor_functor,
    coend_evaluation_map,
)

from helpers import (
    coend_map_left,
    coend_map_right,
    direct_sum_functors,
    representable,
    zero_functor,
)
from zpure.zmodlin import IntMatrix, hermite_kernel, kernel_mod

from oracles import (
    all_homs,
    reference_coend_evaluation_ambient,
    reference_coend_evaluation_map,
    reference_check_associativity,
    reference_coend_tensor,
    reference_comp_coeff,
    reference_compose_steps,
    reference_dual_actions,
    reference_dual_functor,
    reference_fp_actions,
    reference_fp_functor_from_map,
    reference_fp_induced,
    reference_gen_map,
    reference_hermite_kernel,
    reference_hom_tensor_duality_map,
    reference_nat_transformations,
    reference_postcompose,
    reference_precompose,
    reference_representable_cov,
    reference_restrict_actions,
    reference_restrict_module,
    reference_tensor_actions,
    reference_tensor_functor,
    reference_validate_functor,
)


def Z(n, *invs):
    return CanonicalModule(n, tuple(invs))


CAT4 = build_index_category(4)


MEMOS = (funcat.fp_functor_from_map, funcat.dual_functor, funcat.coend_tensor)


@pytest.fixture
def cleared_memos():
    """Empty the functor-level memos before and after a test, so that a test
    which patches funcat's internals neither reads entries built without the
    patch nor leaves entries built with it."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def nat_family(nat, element):
    """The components (alpha_d) of the transformation ``element`` of nat,
    read off its ambient vector one hom group at a time."""
    amb = nat.subgroup.element(element)
    return tuple(h.to_map(amb[start:start + h.module.ngens])
                 for h, start in zip(nat.homs, nat.offsets))


def test_index_category_basics():
    assert CAT4.objects == (1, 2, 4)
    # Hom(Z/2, Z/4) is the 2 multiples of g_{2,4}, against full enumeration
    multiples = {CAT4.gen_map(2, 4).scale(c).matrix.tolists()[0][0] for c in range(4)}
    assert sorted(m[0][0] for m in all_homs((2,), (4,))) == sorted(multiples) == [0, 2]
    # zero object
    assert CAT4.gen_map(1, 4).is_zero_map()
    assert len(all_homs((), (4,))) == 1
    # composite g_{2,4} o g_{4,2} = 2 * g_{4,4}: evaluate 1 -> 1 -> 2
    assert reference_comp_coeff(4, 2, 4) == 2
    g42 = CAT4.gen_map(4, 2)
    g24 = CAT4.gen_map(2, 4)
    comp = g24 @ g42
    assert comp.apply((1,)) == (2,)


def test_index_category_associativity_all_small():
    for n in range(1, 61):
        reference_check_associativity(build_index_category(n).objects)


@pytest.mark.parametrize("n", (360, 720, 2520))
def test_index_category_associativity_large(n):
    reference_check_associativity(build_index_category(n).objects)


def test_representable_and_restriction():
    rep = representable(CAT4, 2)
    assert rep.value(4) == Z(4, 2)
    assert rep.value(1).is_zero()
    rest = restrict_module(CAT4, Z(4, 4))
    assert rest.value(2) == Z(4, 2)  # Hom(Z/2, Z/4) has 2 elements
    # representable at the zero object is the zero functor
    rep1 = representable(CAT4, 1)
    assert all(rep1.value(d).is_zero() for d in CAT4.objects)
    # restriction is additive objectwise
    c1, c2 = Z(4, 2), Z(4, 4)
    big = direct_sum([c1, c2]).module
    for d in CAT4.objects:
        lhs = restrict_module(CAT4, big).value(d)
        r1 = restrict_module(CAT4, c1).value(d)
        r2 = restrict_module(CAT4, c2).value(d)
        assert lhs.cardinality == r1.cardinality * r2.cardinality


@pytest.mark.parametrize("modulus", [4, 6, 8, 12, 24, 36, 72])
def test_representable_is_the_fp_functor_of_the_zero_map(modulus):
    cat = build_index_category(modulus)
    for a in cat.objects:
        assert representable(cat, a) == reference_representable_cov(cat, a), a


def test_functor_validation_catches_bad_action():
    # D(4,-) has the step action(2,4) = [[2]]; zeroing it breaks the round
    # trip g_{2,4} o g_{4,2} = 2 * g_{4,4}, so validation must fail.
    rep = representable(CAT4, 4)
    k = CAT4.prime_steps.index((CAT4.index_of(2), CAT4.index_of(4)))
    act = rep.steps[k]
    assert act == rep.action(2, 4) and not act.is_zero_map()
    bad_steps = list(rep.steps)
    bad_steps[k] = ModuleMap.zero(act.domain, act.codomain)
    with pytest.raises(InputError, match="composition table"):
        FunctorOnD(CAT4, COVARIANT, rep.values, tuple(bad_steps))


def test_pre_post_compose():
    u = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    pre = precompose(u, Z(4, 4))  # Hom(Z/4, Z/4) -> Hom(Z/2, Z/4)
    assert pre.domain == Z(4, 4)
    assert pre.codomain == Z(4, 2)
    post = postcompose(u, Z(4, 2))  # Hom(Z/2, Z/2) -> Hom(Z/2, Z/4)
    assert post.domain == Z(4, 2)
    assert post.codomain == Z(4, 2)


def test_coend_lemma_examples():
    # coend(D(-, Z/4), D(Z/2, -)) over N=4 is Z/2 = Hom(Z/2, Z/4)
    G = restrict_module(CAT4, Z(4, 4))
    F = representable(CAT4, 2)
    res = coend_tensor(G, F)
    assert res.group == Z(4, 2)
    # zero cases
    assert coend_tensor(zero_functor(CAT4, CONTRAVARIANT), F).group.is_zero()
    assert coend_tensor(G, zero_functor(CAT4)).group.is_zero()
    # against the plain tensor product: G = Hom(-, Z/2), F = Z/2 (x) -
    G2 = restrict_module(CAT4, Z(4, 2))
    F2 = tensor_functor(CAT4, Z(4, 2))
    res2 = coend_tensor(G2, F2)
    direct = tensor_modules(Z(4, 2), Z(4, 2)).module
    assert res2.group == direct


def test_coend_checks_its_projection_against_the_tensor_orders(monkeypatch, cleared_memos):
    """The check that stands for the injections' ModuleMap checks: a
    projection column not killed by its order is refused before any
    injection is read."""
    from zpure.finmod import Presentation, normalize_presentation

    G, F = restrict_module(CAT4, Z(4, 4)), tensor_functor(CAT4, Z(4, 4))
    assert coend_tensor(G, F).group == Z(4, 4)

    def shifted(columns, orders, modulus):
        pres = normalize_presentation(columns, orders, modulus)
        project = IntMatrix.from_rows([[v + 1 for v in row] for row in pres.project.entries])
        return Presentation(pres.module, project, pres.lift)

    monkeypatch.setattr(funcat, "normalize_presentation", shifted)
    coend_tensor.cache_clear()  # else the memo answers without building
    with pytest.raises(InternalCheckError, match="tensor orders"):
        coend_tensor(G, F)


def test_coend_injections_jointly_surjective():
    rng = random.Random("inj")
    for _ in range(5):
        G = random_contra_functor(CAT4, rng)
        F = random_functor(CAT4, rng)
        res = coend_tensor(G, F)
        img = 0
        gens = []
        for inj in res.injections:
            gens.extend(inj.matrix.col(j) for j in range(inj.matrix.cols))
        from zpure.finmod import Subgroup
        sub = Subgroup(res.group.invariants, 4, tuple(gens))
        assert sub.cardinality == res.group.cardinality


def test_coend_relations_hold_in_quotient():
    rng = random.Random("rel")
    from zpure.finmod import tensor_modules as tm
    for _ in range(4):
        G = random_contra_functor(CAT4, rng)
        F = random_functor(CAT4, rng)
        res = coend_tensor(G, F)
        for i_d, d in enumerate(CAT4.objects):
            for i_e, e in enumerate(CAT4.objects):
                if d == e:
                    continue
                ge, fd = G.value(e), F.value(d)
                g_act, f_act = G.action(d, e), F.action(d, e)
                td = tm(G.value(d), F.value(d))
                te = tm(G.value(e), F.value(e))
                for x in ge.elements():
                    for y in fd.elements():
                        lhs = res.injections[i_d].apply(td.pure(g_act.apply(x), y))
                        rhs = res.injections[i_e].apply(te.pure(x, f_act.apply(y)))
                        assert lhs == rhs


def test_coend_evaluation_map_iso():
    rng = random.Random("coendeval")
    cats = {n: build_index_category(n) for n in (4, 6, 9)}
    for n, cat in cats.items():
        for i in range(6):
            F = random_functor(cat, rng)
            for a in cat.objects:
                coend, themap = coend_evaluation_map(F, a)
                assert themap.is_bijective(), (n, a)
                assert coend.group == F.value(a)  # canonical forms coincide


def test_coend_evaluation_natural_in_object():
    rng = random.Random("nat-a")
    for _ in range(4):
        F = random_functor(CAT4, rng)
        for a, a2 in [(2, 4), (4, 2), (2, 2)]:
            Ga = restrict_module(CAT4, CAT4.cyclic(a))
            Ga2 = restrict_module(CAT4, CAT4.cyclic(a2))
            coend_a, eva = coend_evaluation_map(F, a)
            coend_a2, eva2 = coend_evaluation_map(F, a2)
            # postcomposition with g_{a,a2} as a natural map Ga -> Ga2
            eta = [postcompose(CAT4.gen_map(a, a2), CAT4.cyclic(d)) for d in CAT4.objects]
            trans = coend_map_left(Ga, Ga2, F, eta, coend_a, coend_a2)
            assert (eva2 @ trans) == (F.action(a, a2) @ eva)


def test_coend_evaluation_natural_in_functor():
    rng = random.Random("nat-F")
    F1 = random_functor(CAT4, rng)
    F2 = random_functor(CAT4, rng)
    nat = nat_transformations(F1, F2)
    zero = (0,) * nat.module.ngens
    elements = [zero] if nat.module.is_zero() else [nat.module.generator(0), zero]
    for el in elements:
        fam = nat_family(nat, el)
        for a in CAT4.objects:
            G = restrict_module(CAT4, CAT4.cyclic(a))
            c1, ev1 = coend_evaluation_map(F1, a)
            c2, ev2 = coend_evaluation_map(F2, a)
            trans = coend_map_right(G, F1, F2, fam, c1, c2)
            ia = CAT4.index_of(a)
            assert (ev2 @ trans) == (fam[ia] @ ev1)


def test_kan_eval_examples():
    # F = D(Z/2, -): kan_eval(F, c) = Hom(Z/2, c)
    F = representable(CAT4, 2)
    for c in [Z(4, 4), Z(4, 2, 4), Z(4)]:
        assert kan_eval(F, c) == hom_module(Z(4, 2), c).module
    # restriction: kan_eval(F, Z/d) = F(d)
    rng = random.Random("kan")
    for _ in range(5):
        F = random_functor(CAT4, rng)
        for d in CAT4.objects:
            assert kan_eval(F, CAT4.cyclic(d)) == F.value(d)
    # additivity in c
    F = random_functor(CAT4, rng)
    c1, c2 = Z(4, 2), Z(4, 4)
    lhs = kan_eval(F, direct_sum([c1, c2]).module)
    r1, r2 = kan_eval(F, c1), kan_eval(F, c2)
    assert lhs == direct_sum([r1, r2]).module


def test_fp_functor_examples():
    z4 = Z(4, 4)
    # u = identity: the functor vanishes
    u_id = ModuleMap.identity(z4)
    for d in CAT4.objects:
        assert fp_value(u_id, CAT4.cyclic(d)).module.is_zero()
    # u = 0: Z/4 -> Z/4: eval at c is Hom(Z/4, c) = c
    u0 = ModuleMap.zero(z4, z4)
    for c in [Z(4, 4), Z(4, 2), Z(4, 2, 4)]:
        assert fp_value(u0, c).module == hom_module(z4, c).module
    # u = multiplication by 2 on Z/4: eval at Z/4 is Z/2
    u2 = ModuleMap.from_rows(z4, z4, [[2]])
    assert fp_value(u2, z4).module == Z(4, 2)


def test_fp_functor_consistency_with_kan():
    rng = random.Random("fpkan")
    for i in range(6):
        from zpure.finmod import random_hom
        b = random_module(4, rng, 2)
        a = random_module(4, rng, 2)
        u = random_hom(b, a, rng)
        F = fp_functor_from_map(u, CAT4)
        for c in [Z(4, 2), Z(4, 4), Z(4, 2, 4)]:
            assert kan_eval(F, c) == fp_value(u, c).module


def test_tensor_functor_examples():
    # Y = Z/N gives d -> Z/d
    F = tensor_functor(CAT4, Z(4, 4))
    for d in CAT4.objects:
        assert F.value(d) == CAT4.cyclic(d)
    # Y = 0 gives the zero functor
    F0 = tensor_functor(CAT4, Z(4))
    assert all(F0.value(d).is_zero() for d in CAT4.objects)
    # Y = Z/2 at object 4 over N=4
    F2 = tensor_functor(CAT4, Z(4, 2))
    assert F2.value(4) == Z(4, 2)
    # kan extension of Y (x) - agrees with the direct tensor product
    rng = random.Random("tf")
    for _ in range(4):
        y = random_module(4, rng, 2)
        F = tensor_functor(CAT4, y)
        c = random_module(4, rng, 2)
        assert kan_eval(F, c) == tensor_modules(y, c).module


def test_dual_functor():
    rng = random.Random("dualF")
    F = random_functor(CAT4, rng)
    Fd = dual_functor(F)
    assert not Fd.is_covariant()
    for d in CAT4.objects:
        assert Fd.value(d).cardinality == F.value(d).cardinality
    Fdd = dual_functor(Fd)
    assert Fdd.is_covariant()
    for d in CAT4.objects:
        assert Fdd.value(d) == F.value(d)
    # dual of the zero functor
    z = dual_functor(zero_functor(CAT4))
    assert all(z.value(d).is_zero() for d in CAT4.objects)


def brute_force_nat_count(F, H):
    cat = F.category
    per_object = []
    for d in cat.objects:
        mats = all_homs(F.value(d).invariants, H.value(d).invariants)
        per_object.append([ModuleMap.from_rows(F.value(d), H.value(d), m) for m in mats])
    count = 0
    for family in product(*per_object):
        ok = True
        for i_d, d in enumerate(cat.objects):
            for i_e, e in enumerate(cat.objects):
                if d == e:
                    continue
                lhs = H.action(d, e) @ family[i_d]
                rhs = family[i_e] @ F.action(d, e)
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_nat_yoneda():
    # Nat(D(a, -), H) = H(a), enumerated by brute force at N=4, a=2
    rng = random.Random("yoneda")
    F = representable(CAT4, 2)
    for _ in range(3):
        H = random_functor(CAT4, rng, max_gens=1)
        nat = nat_transformations(F, H)
        assert nat.module.cardinality == H.value(2).cardinality
        assert nat.module.cardinality == brute_force_nat_count(F, H)


def test_nat_basics():
    rng = random.Random("natb")
    F = random_functor(CAT4, rng)
    natz = nat_transformations(F, zero_functor(CAT4))
    assert natz.module.is_zero()
    natff = nat_transformations(F, F)
    ident = tuple(ModuleMap.identity(F.value(d)) for d in CAT4.objects)
    coords = natff.from_family(ident)  # raises if the identity were not natural
    back = nat_family(natff, coords)
    assert all(a == b for a, b in zip(back, ident))


def test_nat_to_family_roundtrip():
    rng = random.Random("natr")
    F = random_functor(CAT4, rng)
    H = random_functor(CAT4, rng)
    nat = nat_transformations(F, H)
    for el in nat.module.elements():
        fam = nat_family(nat, el)
        # each family member really is natural: verified by from_family
        assert nat.from_family(fam) == nat.module.reduce(el)


def test_hom_tensor_duality_examples():
    G = restrict_module(CAT4, Z(4, 4))
    F = representable(CAT4, 2)
    assert hom_tensor_duality_check(G, F)
    assert hom_tensor_duality_check(G, zero_functor(CAT4))
    rng = random.Random("htd")
    for _ in range(5):
        G = random_contra_functor(CAT4, rng)
        F = random_functor(CAT4, rng)
        assert hom_tensor_duality_check(G, F)


def test_dual_of_hom_examples():
    assert dual_of_hom_check(Z(4), CAT4)
    assert dual_of_hom_check(Z(4, 4), CAT4)
    # both sides at object 2 are Z/2 for X = Z/4
    h = hom_module(Z(4, 2), Z(4, 4)).module
    t = tensor_modules(dual_module(Z(4, 4)).module, Z(4, 2)).module
    assert h == t == Z(4, 2)
    rng = random.Random("doh")
    for n in (4, 6, 9):
        cat = build_index_category(n)
        for _ in range(4):
            x = random_module(n, rng, 2)
            assert dual_of_hom_check(x, cat)


def test_coend_additive_in_each_argument():
    rng = random.Random("coadd")
    G1 = random_contra_functor(CAT4, rng, max_gens=1)
    G2 = random_contra_functor(CAT4, rng, max_gens=1)
    F = random_functor(CAT4, rng, max_gens=1)
    lhs = coend_tensor(direct_sum_functors(G1, G2), F).group
    r1 = coend_tensor(G1, F).group
    r2 = coend_tensor(G2, F).group
    assert lhs == direct_sum([r1, r2]).module
    F2 = random_functor(CAT4, rng, max_gens=1)
    lhs = coend_tensor(G1, direct_sum_functors(F, F2)).group
    assert lhs == direct_sum([coend_tensor(G1, F).group,
                              coend_tensor(G1, F2).group]).module


def test_fp_induced_functorial():
    rng = random.Random("fpind")
    from zpure.finmod import random_hom
    b = random_module(4, rng, 2)
    a = random_module(4, rng, 2)
    u = random_hom(b, a, rng)
    c1 = random_module(4, rng, 2)
    c2 = random_module(4, rng, 2)
    c3 = random_module(4, rng, 2)
    f = random_hom(c1, c2, rng)
    g = random_hom(c2, c3, rng)
    assert fp_induced(u, g @ f) == fp_induced(u, g) @ fp_induced(u, f)
    assert fp_induced(u, ModuleMap.identity(c1)) == ModuleMap.identity(fp_value(u, c1).module)


def test_index_category_built_once_per_modulus():
    assert build_index_category(24) is build_index_category(24)
    fresh = IndexCategoryD(24, build_index_category(24).objects)
    assert fresh == build_index_category(24)
    assert hash(fresh) == hash(build_index_category(24))


def test_comp_coeff_table_matches_formula():
    """The coefficient formula against the composite of two explicit maps:
    g_{e,f} o g_{d,e} == c * g_{d,f}, and g_{d,f} has order gcd(d, f)."""
    for n in range(1, 61):
        cat = build_index_category(n)
        for d in cat.objects:
            for e in cat.objects:
                for f in cat.objects:
                    composite = cat.gen_map(e, f) @ cat.gen_map(d, e)
                    c = reference_comp_coeff(d, e, f)
                    assert composite == cat.gen_map(d, f).scale(c), (n, d, e, f)


def sample_functors(cat, rng):
    """Covariant and contravariant fp, representable, restricted, tensor and
    dual functors on cat, in rotation, each with a thunk for its table of
    every action built pair by pair."""
    n = cat.modulus

    def fp(variance=COVARIANT):
        b, a = random_module(n, rng, 2), random_module(n, rng, 2)
        u = random_hom(b, a, rng)
        return fp_functor_from_map(u, cat, variance), lambda: reference_fp_actions(u, cat, variance)

    def restricted():
        c = random_module(n, rng, 2)
        return restrict_module(cat, c), lambda: reference_restrict_actions(cat, c)

    def dual():
        F, table = fp()
        return dual_functor(F), lambda: reference_dual_actions(table())

    def contra():  # the draws of random_contra_functor
        return (restricted, dual, lambda: fp(CONTRAVARIANT))[rng.randrange(3)]()

    def represented():
        a = rng.choice(cat.objects)
        u = ModuleMap.zero(cat.cyclic(a), CanonicalModule.zero(n))
        return representable(cat, a), lambda: reference_fp_actions(u, cat)

    def tensored():
        y = random_module(n, rng, 2)
        return tensor_functor(cat, y), lambda: reference_tensor_actions(cat, y)

    while True:
        for kind in (fp, contra, represented, restricted, tensored, dual):
            yield kind()


@pytest.mark.parametrize("n", (6, 8, 12, 24, 30, 36, 60, 72, 210))
def test_actions_match_the_all_pairs_construction(n):
    """Actions composed along the prime steps against every action built by
    its own construction, identities included."""
    cat = build_index_category(n)
    gen = sample_functors(cat, random.Random(f"all-pairs:{n}"))
    for i in range(12):
        F, table = next(gen)
        for (d, e), act in table().items():
            assert F.action(d, e) == act, (n, i, d, e)
            assert F.action(d, e) is F.action(d, e)


def validation_outcome(validate, cat, variance, values, actions):
    try:
        validate(cat, variance, values, actions)
    except InputError as exc:
        return str(exc)
    return None


def step_validate(cat, variance, values, steps):
    FunctorOnD(cat, variance, values, steps)


def with_actions(cat, table, changes):
    """(steps, table): an all-pairs table with the actions at some pairs
    replaced, and the actions it holds at the prime steps."""
    table = {**table, **changes}
    objs = cat.objects
    return tuple(table[objs[i], objs[j]] for i, j in cat.prime_steps), table


def test_table_validator_accepts_what_the_reference_accepts():
    count = 0
    for n, k in ((6, 60), (8, 60), (12, 50), (24, 36)):
        cat = build_index_category(n)
        gen = sample_functors(cat, random.Random(f"validate:{n}"))
        for _ in range(k):
            F, table = next(gen)
            data = (cat, F.variance, F.values)
            assert validation_outcome(reference_validate_functor, *data, table()) is None
            assert validation_outcome(step_validate, *data, F.steps) is None
            count += 1
    assert count >= 200


def test_table_validator_rejects_like_the_reference():
    """Every message of the step validator, on step actions, against the
    reference on the all-pairs table with the same actions changed.  An
    identity that is not one cannot be written: identities are not stored."""
    z2, z4, zero = Z(4, 2), Z(4, 4), Z(4)
    rep = representable(CAT4, 4)  # values 0, Z/2, Z/4
    table = reference_fp_actions(ModuleMap.zero(z4, zero), CAT4)
    wrong_type = with_actions(CAT4, table, {(2, 4): ModuleMap.zero(z4, z4)})
    not_composing = with_actions(CAT4, table, {(2, 4): ModuleMap.zero(z2, z4)})
    # Z/4 at the object 2 with identity and zero actions: 2 does not kill it
    big = (zero, z4, z4)
    torsion = with_actions(CAT4, {
        (d, e): ModuleMap.identity(big[i]) if i == j else ModuleMap.zero(big[i], big[j])
        for i, d in enumerate(CAT4.objects) for j, e in enumerate(CAT4.objects)}, {})
    # D(6, -) with 0 at the object 3: g_{3,6} o g_{6,3} = 2 * id_6 now
    # factors through 0, but 2 does not kill F(6) = Z/6
    cat6 = build_index_category(6)
    rep6 = representable(cat6, 6)
    table6 = reference_fp_actions(ModuleMap.zero(Z(6, 6), Z(6)), cat6)
    vals6 = tuple(Z(6) if d == 3 else v for d, v in zip(cat6.objects, rep6.values))
    zeroed6 = with_actions(cat6, table6, {
        (d, e): ModuleMap.zero(vals6[i], vals6[j]) for i, d in enumerate(cat6.objects)
        for j, e in enumerate(cat6.objects) if 3 in (d, e)})
    # D(24, -) with both steps between 12 and 24 negated: their round trips
    # still hold, but g_{8,12} is no longer the same along 8, 4, 12 and
    # along 8, 24, 12 (only a square catches this)
    cat24 = build_index_category(24)
    rep24 = representable(cat24, 24)
    table24 = reference_fp_actions(ModuleMap.zero(Z(24, 24), Z(24)), cat24)
    twisted = with_actions(cat24, table24, {pair: table24[pair].scale(-1)
                                            for pair in ((12, 24), (24, 12))})
    composition = "functor violates the composition table"
    cases = [
        (CAT4, COVARIANT, rep.values, wrong_type, "action has the wrong type for the variance"),
        (CAT4, CONTRAVARIANT, rep.values, (rep.steps, table),
         "action has the wrong type for the variance"),
        (CAT4, COVARIANT, big, torsion, "action violates hom-group torsion"),
        (CAT4, COVARIANT, rep.values, not_composing, composition),
        (cat6, COVARIANT, vals6, zeroed6, composition),
        (cat24, COVARIANT, rep24.values, twisted, composition),
    ]
    assert rep.steps == with_actions(CAT4, table, {})[0]
    for cat, variance, values, (steps, actions), message in cases:
        assert validation_outcome(reference_validate_functor, cat, variance, values,
                                  actions) == message
        assert validation_outcome(step_validate, cat, variance, values, steps) == message


def test_table_validator_agrees_on_random_mutations():
    """The step validator against the reference on the table that the
    steps generate, after a random_hom or scale mutation of one step, or
    with one value zeroed together with the steps at it."""
    rng = random.Random("mutate")
    outcomes = []
    for n, k in ((6, 30), (8, 30), (12, 30), (24, 30), (30, 30), (36, 30),
                 (60, 8), (72, 8), (210, 8)):
        cat = build_index_category(n)
        gen = sample_functors(cat, rng)
        for _ in range(k):
            F, _ = next(gen)
            cov = F.is_covariant()
            values, steps = list(F.values), list(F.steps)
            draw = rng.random()
            if draw < 0.2:
                i = rng.randrange(1, len(values))
                values[i] = CanonicalModule.zero(n)
                for k, (a, b) in enumerate(cat.prime_steps):
                    if i in (a, b):
                        steps[k] = ModuleMap.zero(values[a if cov else b], values[b if cov else a])
            else:
                k = rng.randrange(len(steps))
                act = steps[k]
                steps[k] = random_hom(act.domain, act.codomain, rng) if draw < 0.6 else \
                    act.scale(rng.randrange(2, n))
            data = (cat, F.variance, tuple(values))
            table = reference_compose_steps(cat, F.variance, values, steps)
            expected = validation_outcome(reference_validate_functor, *data, table)
            assert validation_outcome(step_validate, *data, tuple(steps)) == expected
            outcomes.append(expected)
    # mutations keep types and torsion, so only the composition can fail
    assert set(outcomes) == {None, "functor violates the composition table"}
    assert outcomes.count(None) >= 20 and outcomes.count(None) <= len(outcomes) - 20


@pytest.mark.parametrize("n", [6, 8, 12])
def test_nat_solutions_match_kernel_mod(n, monkeypatch, cleared_memos):
    systems = []

    def spy(rows, moduli, width):
        gens = hermite_kernel(rows, moduli, width)
        systems.append((rows, moduli, width, gens))
        return gens

    monkeypatch.setattr(funcat, "hermite_kernel", spy)
    cat = build_index_category(n)
    rng = random.Random(f"natkernel:{n}")
    for i in range(8):
        if i % 2:
            F, H = random_contra_functor(cat, rng), random_contra_functor(cat, rng)
        else:
            F, H = random_functor(cat, rng), random_functor(cat, rng)
        nat = nat_transformations(F, H)
        rows, moduli, total, gens = systems[-1]
        big = lcm(*moduli)
        assert all(0 <= v < big for g in gens if big not in g for v in g)
        assert all(sorted(g) == [0] * (total - 1) + [big] for g in gens if big in g)
        assert gens == reference_hermite_kernel(rows, moduli, total)
        reference = kernel_mod(IntMatrix.from_rows(rows, cols=total), moduli)
        orders = nat.subgroup.ambient_orders
        assert nat.subgroup.key == Subgroup(orders, n, tuple(reference)).key


def test_suite_loop_counts_every_outcome_in_order():
    seen = []

    def checks(cat, rng, i):
        seen.append((cat.modulus, i))
        yield f"first: trial {i}", i % 2 == 0
        yield f"second: trial {i}", rng.random() >= 0
        yield f"third: trial {i}", i == 3

    result = suites._run("fake", "fake", 6, 4, 1, checks)
    assert seen == [(6, 0), (6, 1), (6, 2), (6, 3)]
    assert (result.name, result.passed, result.total) == ("fake", 7, 12)
    assert result.failures == ("third: trial 0", "first: trial 1", "third: trial 1",
                               "third: trial 2", "first: trial 3")
    assert not result.ok
    empty = suites._run("none", "none", 6, 0, 1, checks)
    assert (empty.passed, empty.total, empty.failures, empty.ok) == (0, 0, (), True)


def test_suite_rng_is_seeded_from_tag_modulus_and_seed():
    draws = []

    def checks(cat, rng, i):
        draws.append(rng.random())
        yield "", True

    suites._run("x", "restrict", 12, 2, 5, checks)
    rng = random.Random("restrict:12:5")
    assert draws == [rng.random(), rng.random()]


def test_nat_system_that_hung_finishes():
    # kernel_mod's Smith reduction spent 27 s and over 40 s on these two
    # Nat systems at N=24, as its entries grew; hermite_kernel's stay <= N
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("from zpure.suites import suite_fully_faithful\n"
            "for seed in ('7:4', '7:71'):\n"
            "    r = suite_fully_faithful(24, 1, seed)\n"
            "    print(r.passed, r.total)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2", "2", "2"]


def test_every_funcat_cache_is_bounded():
    caches = {name: fn for name, fn in vars(funcat).items()
              if hasattr(fn, "cache_parameters") and fn.__module__ == funcat.__name__}
    assert {"build_index_category", "restrict_module", "tensor_functor",
            "fp_functor_from_map", "dual_functor", "coend_tensor"} <= set(caches)
    assert "fp_value" not in caches
    for name, fn in caches.items():
        assert fn.cache_parameters()["maxsize"] is not None, name


def test_functor_is_hashed_once_by_its_compared_fields():
    cat = build_index_category(12)
    rng = random.Random("hash-once")
    u = random_hom(random_module(12, rng, 2), random_module(12, rng, 2), rng)
    build = funcat.fp_functor_from_map.__wrapped__
    F, F2 = build(u, cat), build(u, cat)
    assert F is not F2 and F == F2 and hash(F) == hash(F2)
    compared = tuple(getattr(F, f.name) for f in dataclasses.fields(F) if f.compare)
    assert compared == (F.category, F.variance, F.values, F.steps)
    assert hash(F) == F._hash == hash(compared)
    # equality still reads the compared fields: another variance is unequal
    assert F != build(u, cat, CONTRAVARIANT)


def _same_coend(a, b):
    return ((a.group, a.pres, a.offsets, a.orders, a.injections) ==
            (b.group, b.pres, b.offsets, b.orders, b.injections))


def _check_memo(memo, keys, same=operator.eq) -> tuple[list, bool]:
    """Call ``memo`` on each key in turn, every answer, hit or miss, against
    ``memo.__wrapped__``.  Where the distinct keys outnumber the memo, the
    one used longest ago has been evicted: it is rebuilt, and equal.  Returns
    the answers and whether that happened."""
    answers = []
    for key in keys:
        answers.append(memo(*key))
        assert same(answers[-1], memo.__wrapped__(*key)), (memo.__name__, key)
    last_use = {key: pos for pos, key in enumerate(keys)}
    evicted = len(last_use) > memo.cache_parameters()["maxsize"]
    if evicted:
        oldest = min(last_use, key=last_use.get)
        misses = memo.cache_info().misses
        assert same(memo(*oldest), memo.__wrapped__(*oldest)), (memo.__name__, oldest)
        assert memo.cache_info().misses == misses + 1
    return answers, evicted


# Seeded presentations per modulus, and the memos they overrun: at N=24 the
# (u, variance) keys and the functors outnumber the functor memos (128), and
# at N=12 the 23 x 23 coend pairs outnumber the coend memo (512).
MEMO_DRAWS = {4: 30, 6: 30, 12: 60, 24: 200, 72: 30}
MEMO_OVERRUNS = {12: {"coend_tensor"}, 24: {"fp_functor_from_map", "dual_functor"}}


@pytest.mark.parametrize("n", sorted(MEMO_DRAWS))
def test_memos_match_what_they_wrap(n, cleared_memos):
    cat = build_index_category(n)
    rng = random.Random(f"memo:{n}")
    maps = []
    for _ in range(MEMO_DRAWS[n]):
        b, a = random_module(n, rng, 2), random_module(n, rng, 2)
        maps.append(random_hom(b, a, rng))
    overruns = set()

    def check(memo, keys, same=operator.eq):
        answers, evicted = _check_memo(memo, keys, same)
        if evicted:
            overruns.add(memo.__name__)
        return answers

    functors = check(fp_functor_from_map,
                     [(u, cat, variance) for u in maps for variance in (COVARIANT, CONTRAVARIANT)])
    # a defaulted variance, an explicit one and a keyword share one entry
    for u in maps[:5]:
        assert fp_functor_from_map(u, cat) is fp_functor_from_map(u, cat, COVARIANT) \
            is fp_functor_from_map(u, cat, variance=COVARIANT)
    duals = check(dual_functor, [(F,) for F in functors])
    distinct = list(dict.fromkeys(functors + duals))
    covs = [F for F in distinct if F.is_covariant()]
    contras = [G for G in distinct if not G.is_covariant()]
    k = 23 if n == 12 else 6
    check(coend_tensor, [(G, F) for G in contras[:k] for F in covs[:k]], _same_coend)
    assert overruns == MEMO_OVERRUNS.get(n, set())


# ---------------------------------------------------------------------------
# Integer-table functors and coends against the per-element references

ORACLE_MODULI = (6, 8, 12, 24, 36)
ORACLE_SEEDS = 25
# Coends and Nat groups are built along the prime steps of D; at these moduli
# most ordered pairs are no prime step (460 of 552 at N=360).
LARGE_ORACLE_SEEDS = {72: 6, 360: 4}


def _oracle_inputs(n, seeds=ORACLE_SEEDS):
    """(u, c, y) per seed: a random presentation map u: b -> a and two
    random modules, all with at most two generators."""
    for i in range(seeds):
        rng = random.Random(f"table-oracle:{n}:{i}")
        b, a = random_module(n, rng, 2), random_module(n, rng, 2)
        yield random_hom(b, a, rng), random_module(n, rng, 2), random_module(n, rng, 2)


@pytest.mark.parametrize("n", ORACLE_MODULI)
def test_functors_match_reference(n):
    cat = build_index_category(n)
    for u, c, y in _oracle_inputs(n):
        for variance in (COVARIANT, CONTRAVARIANT):
            F = fp_functor_from_map(u, cat, variance)
            ref = reference_fp_functor_from_map(u, cat, variance)
            assert F == ref, (n, u, variance)
            assert dual_functor(F) == reference_dual_functor(ref), (n, u, variance)
        assert restrict_module(cat, c) == reference_restrict_module(cat, c), (n, c)
        assert tensor_functor(cat, y) == reference_tensor_functor(cat, y), (n, y)


@pytest.mark.parametrize("n", ORACLE_MODULI + tuple(LARGE_ORACLE_SEEDS))
def test_coends_match_reference(n):
    """Relations along the prime steps against relations along every
    ordered pair, and lazy injections against eager ones."""
    cat = build_index_category(n)
    for i, (u, c, y) in enumerate(_oracle_inputs(n, LARGE_ORACLE_SEEDS.get(n, ORACLE_SEEDS))):
        F = fp_functor_from_map(u, cat)
        contras = (restrict_module(cat, c), fp_functor_from_map(u, cat, CONTRAVARIANT),
                   dual_functor(tensor_functor(cat, y)))
        for G in contras:
            coend_tensor.cache_clear()  # a memo hit may have read its injections
            coend = coend_tensor(G, F)
            ref, ref_injections = reference_coend_tensor(G, F)
            assert (coend.group, coend.pres, coend.offsets, coend.orders) == \
                (ref.group, ref.pres, ref.offsets, ref.orders), (n, i, G.values)
            assert "injections" not in vars(coend)
            assert coend.injections == ref_injections, (n, i, G.values)
            assert coend.injections is coend.injections


@pytest.mark.parametrize("n", ORACLE_MODULI + tuple(LARGE_ORACLE_SEEDS))
def test_nat_transformations_match_reference(n):
    cat = build_index_category(n)
    for i, (u, c, y) in enumerate(_oracle_inputs(n, LARGE_ORACLE_SEEDS.get(n, ORACLE_SEEDS))):
        F = fp_functor_from_map(u, cat)
        pairs = ((F, tensor_functor(cat, y)), (tensor_functor(cat, c), tensor_functor(cat, y)),
                 (fp_functor_from_map(u, cat, CONTRAVARIANT), restrict_module(cat, c)),
                 (F, dual_functor(restrict_module(cat, y))))
        for A, B in pairs:
            assert nat_transformations(A, B) == reference_nat_transformations(A, B), (n, i)


@pytest.mark.parametrize("n", (4, 6, 8, 9, 12, 24, 36, 72))
def test_hom_tensor_duality_map_matches_reference(n):
    """Characters through HomModule against the numerator codec, on seeded
    (G, F) pairs drawn as the lemma suite draws them."""
    cat = build_index_category(n)
    rng = random.Random(f"duality-oracle:{n}")
    nonzero = 0
    for i in range(60):
        G = random_contra_functor(cat, rng)
        F = random_functor(cat, rng)
        themap = hom_tensor_duality_map(G, F)
        assert themap == reference_hom_tensor_duality_map(G, F), (n, i)
        nonzero += not themap[0].domain.is_zero()
    assert nonzero >= 8, nonzero


@pytest.mark.parametrize("n", (4, 6, 8, 9, 12, 24, 36, 72))
def test_coend_evaluation_map_matches_reference(n):
    """Tensor generators read through ``TensorModule.entries`` against the
    lift columns read by raw index, on seeded functors and objects."""
    cat = build_index_category(n)
    rng = random.Random(f"evaluation-oracle:{n}")
    nonzero = 0
    for i in range(30):
        F = random_functor(cat, rng)
        a = rng.choice(cat.objects)
        coend, themap = coend_evaluation_map(F, a)
        assert (coend, themap) == reference_coend_evaluation_map(F, a), (n, i, a)
        nonzero += not themap.is_zero_map()
    assert nonzero >= 5, nonzero


@pytest.mark.parametrize("n", (6, 12, 24, 72))
def test_coend_evaluation_kills_every_relation(n):
    """The ambient evaluation W kills the coend relations exactly when it
    factors through ``pres.project``, the quotient by them: W must be
    congruent to ``final @ project`` modulo the invariants of F(a)."""
    cat = build_index_category(n)
    rng = random.Random(f"evaluation-relations:{n}")
    nonzero = 0
    for i in range(30):
        F = random_functor(cat, rng)
        a = rng.choice(cat.objects)
        coend, W = reference_coend_evaluation_ambient(F, a)
        _, themap = coend_evaluation_map(F, a)
        back = themap.matrix @ coend.pres.project
        for w_row, b_row, m in zip(W.entries, back.entries, F.value(a).invariants):
            assert all((w - b) % m == 0 for w, b in zip(w_row, b_row)), (n, i, a)
        nonzero += any(map(any, W.entries))
    assert nonzero >= 5, nonzero


@pytest.mark.parametrize("n", (4, 12, 36))
def test_hom_pushes_match_reference(n):
    for i in range(ORACLE_SEEDS):
        rng = random.Random(f"push-oracle:{n}:{i}")
        c1, c2, c3 = (random_module(n, rng, 2) for _ in range(3))
        u, f = random_hom(c1, c2, rng), random_hom(c2, c3, rng)
        assert precompose(u, c3) == reference_precompose(u, c3)
        assert postcompose(u, c3) == reference_postcompose(u, c3)
        for variance in (COVARIANT, CONTRAVARIANT):
            assert fp_induced(u, f, variance) == reference_fp_induced(u, f, variance)


def test_hom_entry_off_the_carrier_still_raises():
    # v: Z/4 -> Z/8 with matrix [[1]] is ill defined (1 is not killed by 4
    # in Z/8).  Forced past ModuleMap's check, v o h lands off the cyclic
    # carrier of Hom(Z/4, Z/8), whose entries are multiples of 2.  The
    # per-element route refuses v o h as an ill-defined map before reading
    # it back; the integer tables must still refuse it, by the carrier check.
    v = ModuleMap.from_rows(Z(8, 4), Z(8, 8), [[2]])
    object.__setattr__(v, "matrix", IntMatrix.from_rows([[1]]))
    with pytest.raises(InputError, match="ill-defined"):
        reference_postcompose(v, Z(8, 4))
    with pytest.raises(InternalCheckError, match="outside the cyclic carrier"):
        postcompose(v, Z(8, 4))
    # F_u = Hom(Z/4, -) for u: Z/4 -> 0
    u = ModuleMap.zero(Z(8, 4), Z(8))
    with pytest.raises(InternalCheckError, match="outside the cyclic carrier"):
        fp_induced(u, v)


def test_index_category_tables():
    cat = IndexCategoryD(12, build_index_category(12).objects)
    for i, d in enumerate(cat.objects):
        assert cat.index_of(d) == i
        for e in cat.objects:
            assert cat.gen_map(d, e) == reference_gen_map(cat, d, e)
            assert cat.gen_map(d, e) is cat.gen_map(d, e)
    with pytest.raises(InputError, match="not an object"):
        cat.index_of(5)


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1))


@pytest.mark.parametrize("n", (4, 6, 8, 12, 24, 36, 72, 360, 720, 2520))
def test_prime_steps_generate_the_index_category(n):
    """The prime steps are the directed Hasse edges of the divisor lattice,
    and every g_{d,f} is the composite of the steps along d -> gcd(d, f) -> f
    with coefficient 1, so relations and naturality along the steps imply
    them along every canonical generator.  Their relations hold in D: each
    round trip through a neighbour is p times the identity, and the two
    paths between opposite corners of each square are both g_{x,y}, one
    square relation per ordered pair of opposite corners."""
    cat = IndexCategoryD(n, tuple(divisors(n)))
    objs = cat.objects
    primes = [p for p in objs if _is_prime(p)]
    hasse = {(i, j) for i, d in enumerate(objs) for j, e in enumerate(objs)
             if max(d, e) % min(d, e) == 0 and _is_prime(max(d, e) // min(d, e))}
    assert len(cat.prime_steps) == len(set(cat.prime_steps))
    assert set(cat.prime_steps) == hasse, n
    if n == 24:
        assert len(hasse) == 20
    steps = set(cat.prime_steps)
    for d in objs:
        for f in objs:
            g = gcd(d, f)
            path = [d]
            while path[-1] != g:
                path.append(path[-1] // next(p for p in primes if (path[-1] // g) % p == 0))
            while path[-1] != f:
                path.append(path[-1] * next(p for p in primes if (f // path[-1]) % p == 0))
            coeff = 1
            for cur, nxt in zip(path, path[1:]):
                assert (cat.index_of(cur), cat.index_of(nxt)) in steps, (n, cur, nxt)
                coeff = coeff * reference_comp_coeff(d, cur, nxt) % gcd(d, nxt)
            assert (coeff - 1) % g == 0, (n, d, f, path, coeff)

    def coefficient(k1, k2):
        """c with the step k2 after the step k1 equal to c * g_{start,end}."""
        (i, j), (_, l) = pairs[k1], pairs[k2]
        return reference_comp_coeff(objs[i], objs[j], objs[l])

    pairs = cat.prime_steps
    assert len(cat.round_trips) == len(pairs)
    for i, k, k_back, p in cat.round_trips:
        (a, b), back = pairs[k], pairs[k_back]
        assert a == i and back == (b, a), (n, k)
        assert p == max(objs[a], objs[b]) // min(objs[a], objs[b])
        assert (coefficient(k, k_back) - p) % objs[i] == 0, (n, k)
    corners = set()
    for x, y, k1, k2, k3, k4 in cat.squares:
        assert pairs[k1][0] == pairs[k3][0] == x and pairs[k2][1] == pairs[k4][1] == y
        assert pairs[k1][1] == pairs[k2][0] != pairs[k3][1] == pairs[k4][0]
        g = gcd(objs[x], objs[y])
        assert (coefficient(k1, k2) - 1) % g == 0 and (coefficient(k3, k4) - 1) % g == 0
        corners.add((x, y))
    squares = [(d, p, q) for d in objs for p in primes for q in primes
               if p < q and n % (d * p * q) == 0]
    assert len(corners) == len(cat.squares) == 4 * len(squares)
    if n == 24:
        assert (len(cat.round_trips), len(cat.squares)) == (20, 12)
