import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement, islice, product
from math import gcd, prod
from pathlib import Path

import pytest

from zpure.errors import InputError, InternalCheckError
from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    Subgroup,
    canonical_from_cyclic_orders,
    divisors,
    direct_sum,
    dual_map,
    dual_module,
    evaluation_map,
    exactness_failure,
    hom_module,
    is_exact,
    is_split,
    normalize_presentation,
    quotient_by_subgroup,
    random_hom,
    random_module,
    random_ses,
    splitting_section,
    tensor_map,
    tensor_modules,
    tensor_pair_map,
)
from zpure.zmodlin import IntMatrix

from helpers import direct_sum_sequences
from oracles import (
    ReferenceModSolver,
    all_homs,
    apply_matrix,
    divisor_chains,
    module_elements,
    reference_divisors,
    reference_dual_map,
    reference_dual_module,
    reference_evaluation_map,
    reference_pair,
    reference_pure,
    reference_tensor_pair_map,
    span_mod,
)


def Z(n, *invs):
    return CanonicalModule(n, tuple(invs))


# --------------------------------------------------------------------------
# canonical form / presentations


def test_canonical_module_validation():
    with pytest.raises(InputError):
        CanonicalModule(4, (3,))  # 3 does not divide 4
    with pytest.raises(InputError):
        CanonicalModule(8, (4, 2))  # not a chain
    with pytest.raises(InputError):
        CanonicalModule(8, (1,))  # trivial factor not allowed
    assert CanonicalModule(8, ()).cardinality == 1
    assert Z(8, 2, 4).cardinality == 8


def test_normalize_presentation_examples():
    # relations [[2]] over Z/4 presents Z/2 (cokernel has 2 elements)
    pres = normalize_presentation(IntMatrix.from_rows([[2]]), 4)
    assert pres.module == Z(4, 2)
    # no relations, one generator
    pres = normalize_presentation(IntMatrix.zeros(1, 0), 4)
    assert pres.module == Z(4, 4)
    # generator killed
    pres = normalize_presentation(IntMatrix.from_rows([[1]]), 4)
    assert pres.module.is_zero()


def test_normalize_presentation_section():
    rng = random.Random(3)
    for _ in range(25):
        n_mod = rng.choice([2, 4, 6, 12])
        g = rng.randint(1, 3)
        c = rng.randint(0, 3)
        rel = IntMatrix.from_rows(
            [[rng.randrange(n_mod) for _ in range(c)] for _ in range(g)], cols=c)
        pres = normalize_presentation(rel, n_mod)
        q = pres.module.ngens
        ident = (pres.project @ pres.lift).tolists()
        for i in range(q):
            for j in range(q):
                expect = 1 if i == j else 0
                assert (ident[i][j] - expect) % pres.module.invariants[i] == 0


def test_normalize_presentation_idempotent_on_canonical():
    for invs in [(), (2,), (2, 4), (3,), (2, 2, 4)]:
        mod = CanonicalModule(8 if all(i % 3 for i in invs) else 12, invs) if invs else Z(8)
        pres = canonical_from_cyclic_orders(mod.invariants, mod.modulus)
        assert pres.module == mod


# --------------------------------------------------------------------------
# module maps


def test_module_map_well_definedness():
    with pytest.raises(InputError):
        # Z/2 -> Z/4 sending generator to 1 is not well defined
        ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[1]])
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    assert f.apply((1,)) == (2,)


def test_kernel_image_against_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        n_mod = rng.choice([4, 6, 8])
        dom = random_module(n_mod, rng, 2)
        cod = random_module(n_mod, rng, 2)
        f = random_hom(dom, cod, rng)
        ker = {x for x in module_elements(dom.invariants)
               if not any(apply_matrix(f.matrix.tolists(), x, cod.invariants))}
        img = {apply_matrix(f.matrix.tolists(), x, cod.invariants)
               for x in module_elements(dom.invariants)}
        assert f.kernel().cardinality == len(ker)
        assert f.image().cardinality == len(img)
        got_ker = set(f.kernel().elements())
        assert got_ker == ker
        got_img = set(f.image().elements())
        assert got_img == img


def test_subgroup_order_and_membership_against_enumeration():
    # ambients need not be chain-form, and coordinates of order 1 are allowed
    rng = random.Random("subgroup-brute")
    for _ in range(60):
        orders = tuple(rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(rng.randint(0, 3)))
        if prod(orders) > 144:
            continue
        gens = tuple(tuple(rng.randint(-12, 12) for _ in orders)
                     for _ in range(rng.randint(0, 4)))
        sub = Subgroup(orders, 12, gens)
        span = span_mod(gens, orders)
        assert sub.cardinality == len(span)
        for x in module_elements(orders):
            assert sub.contains(x) == (x in span)
            assert sub.contains(tuple(v + o for v, o in zip(x, orders))) == (x in span)


def test_subgroup_coords_roundtrip():
    amb = Z(8, 2, 8)
    sub = Subgroup(amb.invariants, 8, ((1, 2), (0, 4)))
    for x in sub.elements():
        assert sub.contains(x)
        assert sub.element(sub.coords(x)) == x
    assert not sub.contains((0, 1))
    inc = sub.inclusion_into(amb)
    assert inc.is_injective()
    assert inc.domain == sub.module


@pytest.mark.parametrize("n", [12, 24, 36])
def test_subgroup_coords_match_reference_solver(n):
    # any particular solution gives the same coordinates, because two of them
    # differ by a relation, which the presentation's projection kills
    rng = random.Random(f"coords:{n}")
    for _ in range(25):
        amb = random_module(n, rng, 3)
        gens = tuple(tuple(rng.randrange(e) for e in amb.invariants)
                     for _ in range(rng.randint(1, 3)))
        sub = Subgroup(amb.invariants, n, gens)
        if not sub.gens:
            continue
        reference = ReferenceModSolver(sub._gen_matrix.entries, len(sub.gens), amb.invariants)
        for _ in range(6):
            c = [rng.randrange(n) for _ in sub.gens]
            x = amb.reduce(sub._gen_matrix.apply(c))
            expected = sub.module.reduce(sub.presentation.project.apply(reference.particular(x)))
            assert sub.coords(x) == expected
            assert sub.element(expected) == x
        outside = (x for x in module_elements(amb.invariants) if not sub.contains(x))
        for x in islice(outside, 3):
            assert reference.particular(x) is None
            with pytest.raises(InputError):
                sub.coords(x)


def test_quotient_by_subgroup():
    amb = Z(4, 4)
    sub = Subgroup(amb.invariants, 4, ((2,),))
    q, proj, lift = quotient_by_subgroup(amb, sub)
    assert q == Z(4, 2)
    assert proj.is_surjective()
    assert proj.apply((2,)) == (0,)


# --------------------------------------------------------------------------
# hom groups


def test_hom_module_examples():
    h = hom_module(Z(4, 2), Z(4, 4))
    assert h.module == Z(4, 2)  # exactly {0, x -> 2x}
    h = hom_module(Z(4, 4), Z(4))
    assert h.module.is_zero()
    h = hom_module(Z(4, 4), Z(4, 4))
    assert h.module == Z(4, 4)


@pytest.mark.parametrize("n_mod", [4, 6, 8])
def test_hom_module_against_enumeration(n_mod):
    rng = random.Random(f"hom:{n_mod}")
    for _ in range(8):
        dom = random_module(n_mod, rng, 2)
        cod = random_module(n_mod, rng, 2)
        if dom.cardinality > 64 or cod.cardinality > 64:
            continue
        h = hom_module(dom, cod)
        expected = all_homs(dom.invariants, cod.invariants)
        assert h.module.cardinality == len(expected)
        # cardinality formula
        assert h.module.cardinality == prod(
            gcd(d, e) for d in dom.invariants for e in cod.invariants)
        got = {f.matrix.entries for f in h.maps()}
        assert got == set(expected)
        # addition corresponds to pointwise addition
        a = rng.choice(list(h.module.elements())) if not h.module.is_zero() else ()
        b = rng.choice(list(h.module.elements())) if not h.module.is_zero() else ()
        fa, fb = h.to_map(a), h.to_map(b)
        fsum = h.to_map(h.module.add(a, b))
        assert fsum == fa + fb
        # round trip
        assert h.from_map(fa) == h.module.reduce(a)


def test_hom_entries_and_coords_are_to_map_and_from_map():
    rng = random.Random("hom-codec")
    for n_mod in (4, 6, 8, 9, 12, 24, 36, 72):
        for _ in range(10):
            h = hom_module(random_module(n_mod, rng, 3), random_module(n_mod, rng, 3))
            x = tuple(rng.randrange(-n_mod, n_mod) for _ in range(h.module.ngens))
            entries = h.entries(x)
            assert tuple(map(tuple, entries)) == h.to_map(x).matrix.entries
            assert h.coords(entries) == h.from_map(h.to_map(x)) == h.module.reduce(x)
            # entries are read mod their target invariant
            shifted = [[a + e * rng.randrange(-3, 4) for a in row]
                       for row, e in zip(entries, h.target.invariants)]
            assert h.coords(shifted) == h.module.reduce(x)


def test_hom_coords_rejects_entries_outside_the_carrier():
    h = hom_module(Z(4, 2), Z(4, 4))
    assert h.carriers == (((2, 2),),)
    assert h.coords([[6]]) == h.coords([[2]]) == (1,)
    with pytest.raises(InternalCheckError, match="hom entry outside the cyclic carrier"):
        h.coords([[1]])


def test_hom_modulus_mismatch():
    with pytest.raises(InputError):
        hom_module(Z(4, 2), Z(8, 2))


# --------------------------------------------------------------------------
# tensor products


def test_tensor_examples():
    t = tensor_modules(Z(4, 2), Z(4, 4))
    assert t.module == Z(4, 2)
    t = tensor_modules(Z(4, 2), Z(4, 2))
    assert t.module == Z(4, 2)
    # unit of tensor
    y = Z(12, 2, 6)
    t = tensor_modules(y, Z(12, 12))
    assert t.module == y


def test_tensor_cardinality_matches_hom():
    rng = random.Random("tensor")
    for _ in range(12):
        n_mod = rng.choice([4, 6, 8, 12])
        a = random_module(n_mod, rng, 2)
        b = random_module(n_mod, rng, 2)
        t = tensor_modules(a, b)
        h = hom_module(a, b)
        assert t.module.cardinality == h.module.cardinality
        assert t.module.cardinality == prod(
            gcd(x, y) for x in a.invariants for y in b.invariants)


def test_tensor_pure_map_bilinear_and_surjective():
    y = Z(8, 2, 4)
    m = Z(8, 4)
    t = tensor_modules(y, m)
    pures = {t.pure(a, b) for a in y.elements() for b in m.elements()}
    spanned = span_mod(list(pures), t.module.invariants)
    assert len(spanned) == t.module.cardinality
    a1, a2 = (1, 0), (0, 1)
    b = (3,)
    assert t.pure(y.add(a1, a2), b) == t.module.add(t.pure(a1, b), t.pure(a2, b))


def test_tensor_map_functorial():
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    y = Z(4, 2)
    tf = tensor_map(y, f)
    src = tensor_modules(y, f.domain)
    dst = tensor_modules(y, f.codomain)
    # universal property on pure tensors: (id (x) f)(y (x) m) == y (x) f(m)
    for a in y.elements():
        for m in f.domain.elements():
            lhs = tf.apply(src.pure(a, m))
            rhs = dst.pure(a, f.apply(m))
            assert lhs == rhs
    # composition and identity
    idm = ModuleMap.identity(f.domain)
    assert tensor_map(y, idm) == ModuleMap.identity(src.module)


TENSOR_ORACLE_MODULI = (4, 6, 8, 9, 12, 24, 36, 72)
# pairs of modules with more elements than this are compared on a seeded
# sample of element pairs, the rest on every pair
ALL_PAIRS_CAP = 256


@pytest.mark.parametrize("n", TENSOR_ORACLE_MODULI)
def test_tensor_pure_matches_reference(n):
    """``pure`` against the full raw table, for every pair of modules with at
    most two generators; ``entries`` of a generator projects back onto it."""
    rng = random.Random(f"pure-oracle:{n}")
    modules = [Z(n, *chain) for chain in divisor_chains(n, 2)]
    for y in modules:
        for m in modules:
            t = tensor_modules(y, m)
            if y.cardinality * m.cardinality <= ALL_PAIRS_CAP:
                pairs = product(y.elements(), m.elements())
            else:
                pairs = [(tuple(rng.randrange(d) for d in y.invariants),
                          tuple(rng.randrange(d) for d in m.invariants)) for _ in range(16)]
            for a, b in pairs:
                assert t.pure(a, b) == reference_pure(t, a, b), (y, m, a, b)
            for k in range(t.module.ngens):
                x = t.module.generator(k)
                raw = [c for row in t.entries(x) for c in row]
                assert t.module.reduce(t.pres.project.apply(raw)) == x


@pytest.mark.parametrize("n", TENSOR_ORACLE_MODULI)
def test_tensor_pair_map_matches_reference(n):
    for i in range(60):
        rng = random.Random(f"tensor-pair-oracle:{n}:{i}")
        a, b, c, d = (random_module(n, rng, 2) for _ in range(4))
        fl, fr = random_hom(a, b, rng), random_hom(c, d, rng)
        assert tensor_pair_map(fl, fr) == reference_tensor_pair_map(fl, fr), (n, i)


# --------------------------------------------------------------------------
# duals


def test_dual_examples():
    d = dual_module(Z(4, 4))
    assert d.module == Z(4, 4)
    d = dual_module(Z(4))
    assert d.module.is_zero()


def test_dual_pairing_nondegenerate():
    m = Z(8, 2, 4)
    d = dual_module(m)
    # characters with all pairings zero must be zero
    for chi in d.module.elements():
        if any(chi):
            assert any(d.to_map(chi).apply(x)[0] for x in m.elements())
    # and |M*| = |M|
    assert d.module.cardinality == m.cardinality


def test_evaluation_map_iso():
    for mod in [Z(8, 2, 4), Z(4, 4), Z(12, 2, 6), Z(4)]:
        ev = evaluation_map(mod)
        assert ev.is_bijective()


def test_dual_map_contravariant():
    rng = random.Random("dual")
    for _ in range(10):
        n_mod = rng.choice([4, 8, 12])
        a = random_module(n_mod, rng, 2)
        b = random_module(n_mod, rng, 2)
        c = random_module(n_mod, rng, 2)
        f = random_hom(a, b, rng)
        g = random_hom(b, c, rng)
        assert dual_map(g @ f) == dual_map(f) @ dual_map(g)
        # pairing compatibility: <f*(chi), x> == <chi, f(x)>
        db, da = dual_module(b), dual_module(a)
        fd = dual_map(f)
        for chi in db.module.elements():
            for x in a.elements():
                assert da.to_map(fd.apply(chi)).apply(x)[0] == db.to_map(chi).apply(f.apply(x))[0]


DUAL_MODULI = (4, 6, 8, 9, 12, 24, 36, 72)


def _modules_up_to(n, gens):
    """Every module over Z/n with at most ``gens`` generators."""
    divs = [d for d in reference_divisors(n) if d >= 2]
    for k in range(gens + 1):
        for chain in combinations_with_replacement(divs, k):
            if all(b % a == 0 for a, b in zip(chain, chain[1:])):
                yield Z(n, *chain)


@pytest.mark.parametrize("n", DUAL_MODULI)
def test_dual_module_is_the_module_with_identity_presentation(n):
    count = 0
    for m in _modules_up_to(n, 3):
        d = dual_module(m)
        assert d.module == m == reference_dual_module(m)
        assert d.pres.project == d.pres.lift == IntMatrix.identity(m.ngens), m
        count += 1
    assert count > len(reference_divisors(n))


@pytest.mark.parametrize("n", DUAL_MODULI)
def test_duals_match_reference(n):
    """dual_map, evaluation_map and the pairing against the numerator codec."""
    for i in range(300):
        rng = random.Random(f"dual-oracle:{n}:{i}")
        a, b = random_module(n, rng, 3), random_module(n, rng, 3)
        f = random_hom(a, b, rng)
        assert dual_map(f) == reference_dual_map(f), (n, i)
        assert evaluation_map(b) == reference_evaluation_map(b), (n, i)
        chi = tuple(rng.randrange(e) for e in b.invariants)
        x = tuple(rng.randrange(e) for e in b.invariants)
        assert dual_module(b).to_map(chi).apply(x)[0] == reference_pair(b, chi, x), (n, i)


# --------------------------------------------------------------------------
# exact sequences


def z4_nonpure():
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    g = ModuleMap.from_rows(Z(4, 4), Z(4, 2), [[1]])
    return ShortSequence.from_maps(f, g)


def test_is_exact_examples():
    seq = z4_nonpure()
    assert is_exact(seq.f, seq.g)
    # f = 0 with nonzero left term is not injective
    f0 = ModuleMap.zero(Z(4, 2), Z(4, 4))
    g = ModuleMap.from_rows(Z(4, 4), Z(4, 2), [[1]])
    assert exactness_failure(f0, g) == "f is not injective"
    # direct sum inclusion/projection
    ds = direct_sum([Z(4, 2), Z(4, 4)])
    f = ds.inclusions[0]
    g_mat = ds.projections[1]
    assert is_exact(f, g_mat)


def test_short_sequence_rejects_non_exact():
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    g_bad = ModuleMap.zero(Z(4, 4), Z(4, 2))
    with pytest.raises(InputError):
        ShortSequence.from_maps(f, g_bad)


def test_split_examples():
    assert not is_split(z4_nonpure())
    ds = direct_sum([Z(4, 2), Z(4, 4)])
    seq = ShortSequence.from_maps(ds.inclusions[0], ds.projections[1])
    s = splitting_section(seq)
    assert s is not None
    assert (seq.g @ s) == ModuleMap.identity(seq.right)
    # 0 -> 0 -> M -> M -> 0
    m = Z(4, 2, 4)
    seq2 = ShortSequence.from_maps(ModuleMap.zero(Z(4), m), ModuleMap.identity(m))
    assert is_split(seq2)


def test_split_of_invertible_map_at_72_finishes():
    # a Smith-form solver ran over 45 s on this system, as its entries grew;
    # the Hermite solve keeps them below 72
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("from zpure.finmod import CanonicalModule, ModuleMap, ShortSequence, splitting_section\n"
            "M = CanonicalModule(72, (72,) * 5)\n"
            "g = ModuleMap.from_rows(M, M, [[11, 70, 32, 4, 9], [10, 2, 57, 1, 35],\n"
            "    [31, 34, 14, 23, 44], [37, 8, 21, 20, 32], [67, 21, 34, 37, 58]])\n"
            "f = ModuleMap.zero(CanonicalModule.zero(72), M)\n"
            "s = splitting_section(ShortSequence.from_maps(f, g))\n"
            "print(s is not None and (g @ s) == ModuleMap.identity(M))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_split_implies_exact_and_section_exact():
    rng = random.Random("split")
    found_split = 0
    for i in range(40):
        seq = random_ses(rng.choice([4, 8, 9, 12]), seed=f"se:{i}")
        s = splitting_section(seq)
        if s is not None:
            found_split += 1
            assert (seq.g @ s) == ModuleMap.identity(seq.right)
    assert found_split > 0


def test_dualized_sequence_exact():
    for i in range(25):
        seq = random_ses(12, seed=f"dual:{i}")
        fd = dual_map(seq.g)  # right* -> middle*
        gd = dual_map(seq.f)  # middle* -> left*
        assert is_exact(fd, gd)


def test_tensor_right_exactness():
    rng = random.Random("rex")
    for i in range(15):
        n_mod = rng.choice([4, 8, 12])
        seq = random_ses(n_mod, seed=f"rex:{i}", max_gens=2)
        y = random_module(n_mod, rng, 2)
        tg = tensor_map(y, seq.g)
        assert tg.is_surjective()
        tf = tensor_map(y, seq.f)
        coker, _, _ = tf.cokernel()
        assert coker == tensor_modules(y, seq.right).module


def test_random_ses_deterministic_and_valid():
    a = random_ses(4, seed=7)
    b = random_ses(4, seed=7)
    assert a == b
    for i in range(100):
        seq = random_ses(8, seed=i)
        assert is_exact(seq.f, seq.g)


def test_random_ses_gives_the_same_sequences_without_its_cache(monkeypatch):
    from zpure import finmod

    draws = [(n, f"cache:{i}") for n in (4, 6, 8, 12) for i in range(60)]
    finmod._sequence_through_image.cache_clear()
    cached = [random_ses(n, seed=s) for n, s in draws]
    assert finmod._sequence_through_image.cache_info().hits > 0  # repeated maps
    monkeypatch.setattr(finmod, "_sequence_through_image",
                        finmod._sequence_through_image.__wrapped__)
    assert [random_ses(n, seed=s) for n, s in draws] == cached


def test_random_ses_reaches_nonsplit():
    nonsplit = 0
    for i in range(60):
        if not is_split(random_ses(4, seed=f"ns:{i}")):
            nonsplit += 1
    assert nonsplit > 0


def test_random_ses_with_zero_kernel_is_split_iso():
    # when the generated map is injective the left term vanishes and the
    # quotient map is an isomorphism, hence split
    found = False
    for i in range(200):
        seq = random_ses(4, seed=f"zk:{i}")
        if seq.left.is_zero():
            found = True
            assert seq.middle == seq.right  # canonical form: iso means equal
            assert is_split(seq)
            break
    assert found


def test_direct_sum_roundtrip():
    ds = direct_sum([Z(12, 2, 4), Z(12, 3)])
    assert ds.module == Z(12, 2, 12)
    for inc, prj in zip(ds.inclusions, ds.projections):
        assert (prj @ inc) == ModuleMap.identity(inc.domain)
    assert (ds.projections[0] @ ds.inclusions[1]).is_zero_map()


def test_direct_sum_sequences_valid():
    s1 = z4_nonpure()
    ds = direct_sum([Z(4, 2), Z(4, 4)])
    s2 = ShortSequence.from_maps(ds.inclusions[0], ds.projections[1])
    total = direct_sum_sequences(s1, s2)
    assert is_exact(total.f, total.g)
    assert total.middle.cardinality == s1.middle.cardinality * s2.middle.cardinality


def test_divisors_match_definition():
    for n in range(1, 3001):
        assert divisors(n) == reference_divisors(n)


def test_divisors_of_large_prime_is_fast():
    t0 = time.perf_counter()
    assert divisors(10**9 + 7) == [1, 10**9 + 7]
    assert time.perf_counter() - t0 < 0.1
