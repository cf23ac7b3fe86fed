import gc
import hashlib
import json
import os
import random
import signal
import time
import tracemalloc

import pytest

from zpure.errors import InputError, InternalCheckError
from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    Subgroup,
    direct_sum,
    divisors,
    quotient_by_subgroup,
    random_hom,
    random_ses,
    splitting_section,
)
from zpure.purity import (
    DEFAULT_BOUNDS,
    MAX_TRIALS,
    Bounds,
    InducedMaps,
    InducedTerm,
    _modules_with_bounded_gens,
    check_dual_split,
    check_fp_functors,
    check_hom_lifting,
    check_pp_pairs,
    check_split_oracle,
    check_tensor,
    equivalence_harness,
    fp_catalog,
    fp_invariants,
    fp_term,
    module_terms,
    purity_report,
)
from zpure import cli, purity
from zpure.funcat import fp_value
from zpure.ppdef import PpFormula, PpPair, enumerate_pp, eval_pp, pp_conjunctions
from zpure.zmodlin import IntMatrix, hermite_extend, hermite_key

from helpers import direct_sum_sequences, fp_functor_exact, inverse, pp_pair_exact
from oracles import (
    cached_eval_pp,
    module_elements,
    pure_at,
    reference_check_fp_functors,
    reference_check_hom_lifting,
    reference_check_pp_pairs,
    reference_check_tensor,
    reference_divisor_chains,
    reference_eval_pp_gens,
    reference_fp_candidates,
    reference_fp_catalog,
    reference_fp_functor_exact,
    reference_harness,
    reference_pp_pair_exact,
    reference_torsion_subgroup,
    torsion_lifting_facts,
)


def Z(n, *invs):
    return CanonicalModule(n, tuple(invs))


def z4_nonpure():
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    g = ModuleMap.from_rows(Z(4, 4), Z(4, 2), [[1]])
    return ShortSequence.from_maps(f, g)


def split_demo(n=4):
    ds = direct_sum([Z(n, 2), Z(n, n)])
    return ShortSequence.from_maps(ds.inclusions[0], ds.projections[1])


def identity_seq(m):
    return ShortSequence.from_maps(ModuleMap.zero(Z(m.modulus), m), ModuleMap.identity(m))


def test_hom_lifting_examples():
    ok, wit = check_hom_lifting(z4_nonpure())
    assert not ok
    # the witness is the identity on Z/2: a 2-torsion element generating N
    assert wit["cyclic"] == 2 and wit["target"] == [1]
    assert check_hom_lifting(split_demo())[0]
    assert check_hom_lifting(identity_seq(Z(4, 2, 4)))[0]



@pytest.mark.parametrize("n", [4, 8, 9, 12, 24])
def test_hom_lifting_witnesses_fail_purity_by_definition(n):
    # basis-free: the printed target depends on the presentation's basis,
    # but every witness (d, y) must be d-torsion in C, outside g(M[d]), and
    # A & dM != dA must hold at d by brute force
    found = 0
    for s in range(400):
        seq = random_ses(n, f"witness:{s}")
        ok, wit = check_hom_lifting(seq)
        if ok:
            continue
        killed, lifts, pure_at_d = torsion_lifting_facts(seq, wit["cyclic"], wit["target"])
        assert killed and not lifts and not pure_at_d, (s, wit)
        found += 1
        if found == 12:
            break
    assert found == 12


def subgroup_keys(orders):
    """The Hermite key of every subgroup of prod Z/o_i, breadth-first: each
    known key is extended by each element."""
    zero = hermite_key((), orders)
    seen, frontier = {zero}, [zero]
    elements = module_elements(orders)
    while frontier:
        new = []
        for key in frontier:
            for x in elements:
                k = hermite_extend(key, (x,), orders)
                if k not in seen:
                    seen.add(k)
                    new.append(k)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("n, max_gens, sequences, pure", [
    (4, 2, 34, 24), (6, 2, 72, 72), (8, 2, 108, 56), (9, 2, 45, 33),
    (12, 2, 306, 216), (16, 2, 291, 118), (4, 3, 260, 154)])
def test_every_subgroup_is_judged_by_the_definition_of_purity(n, max_gens, sequences, pure):
    # 0 -> A -> M -> M/A -> 0 for every subgroup A of every chain-form M:
    # all six verdicts are "A & dM == dA for every d | n", and an impure
    # A fails the definition at the hom_lifting witness's d
    counts = [0, 0]
    for chain in reference_divisor_chains(n, max_gens):
        middle = CanonicalModule(n, chain)
        for key in subgroup_keys(chain):
            sub = Subgroup(chain, n, key)
            _, proj, _ = quotient_by_subgroup(middle, sub)
            seq = ShortSequence.from_maps(sub.inclusion_into(middle), proj)
            expected = all(pure_at(seq, d) for d in divisors(n))
            rep = purity_report(seq)
            assert set(rep.verdicts.values()) == {expected}, (chain, key, rep.verdicts)
            if not expected:
                assert not pure_at(seq, rep.witnesses["hom_lifting"]["cyclic"]), (chain, key)
            counts[0] += 1
            counts[1] += expected
    assert counts == [sequences, pure]


@pytest.mark.parametrize("seed, splits", [("big:11", True), ("2:0", False)])
def test_split_checkers_stay_small_on_large_generators(seed, splits):
    # 45 middle generators: the joint section system peaked at 313 and 269 MB
    seq = random_ses(4, seed=seed, max_gens=48)
    assert seq.middle.ngens == 45
    tracemalloc.start()
    try:
        section = splitting_section(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert (section is not None) == splits
    if splits:
        assert seq.g @ section == ModuleMap.identity(seq.right)
    lifting = check_hom_lifting(seq)[0]
    assert check_split_oracle(seq)[0] == lifting == splits
    assert check_dual_split(seq)[0] == lifting


@pytest.mark.parametrize("n", [4, 8, 9, 12, 16])
def test_hom_lifting_matches_the_enumerating_reference(n):
    # the witness is read off the torsion generators, where the reference
    # walks the torsion elements; sequences with at least 5 generators
    impure = 0
    for s in range(120):
        seq = random_ses(n, f"lift:{s}", max_gens=5)
        if seq.middle.ngens >= 5:
            verdict = check_hom_lifting(seq)
            assert verdict == reference_check_hom_lifting(seq), s
            impure += not verdict[0]
    assert impure >= 5


@pytest.mark.parametrize("n", [12, 24, 36, 72, 360])
def test_prime_power_checkers_match_every_divisor(n):
    # check_hom_lifting and check_tensor try the prime powers p^j | N only;
    # trying every divisor d >= 2 gives the same verdicts and witnesses
    impure = 0
    for s in range(60):
        seq = random_ses(n, f"powers:{s}", max_gens=4)
        assert check_tensor(seq) == reference_check_tensor(seq), s
        failing = []
        for d in divisors(n)[1:]:
            tor_n = purity._torsion_subgroup(seq.right, d)
            pushed = Subgroup(seq.right.invariants, n, tuple(
                seq.g.apply(x) for x in purity._torsion_subgroup(seq.middle, d).gens))
            if pushed.cardinality != tor_n.cardinality:
                failing.append(d)
        ok, witness = check_hom_lifting(seq)
        assert ok == (not failing), s
        if failing:
            assert witness["cyclic"] == failing[0], s
            impure += 1
    assert impure >= 5


def test_modules_with_bounded_gens_keep_the_reference_order():
    for n in (1, 2, 7, 12, 24, 72, 360):
        for depth in range(4):
            modules = _modules_with_bounded_gens(n, depth)
            assert [m.invariants for m in modules] == reference_divisor_chains(n, depth)


def test_checker_terms_are_kept_only_in_the_module_tables():
    # ModuleTerms is the one memo of fp_term and eval_pp on the checker path:
    # with the tables dropped, what the harness allocated is nearly all freed
    # (a cache of their own kept about 1.9 MiB here)
    equivalence_harness(12, 1, 1, max_gens=6)  # builds the catalogs
    tracemalloc.start()
    try:
        equivalence_harness(12, 20, 1, max_gens=6)
        peak = tracemalloc.get_traced_memory()[1]
        module_terms.cache_clear()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert left < 2 ** 20


@pytest.mark.parametrize("n", [6, 16, 36, 72])
def test_torsion_subgroup_matches_the_kernel_of_d(n):
    for chain in reference_divisor_chains(n, 3):
        for d in divisors(n)[1:]:
            module = Z(n, *chain)
            assert purity._torsion_subgroup(module, d).gens == \
                reference_torsion_subgroup(module, d).gens, (chain, d)


def test_split_oracle_examples():
    ok, wit = check_split_oracle(z4_nonpure())
    assert not ok and wit == {"kind": "no_section"}
    ok, wit = check_split_oracle(split_demo())
    assert ok and "matrix" in wit
    # right term free (projective): sections always exist
    ds = direct_sum([Z(4, 2), Z(4, 4)])
    seq = ShortSequence.from_maps(ds.inclusions[0], ds.projections[1])
    assert seq.right == Z(4, 4)
    assert check_split_oracle(seq)[0]


def test_fp_functor_checker_examples():
    ok, wit = check_fp_functors(z4_nonpure())
    assert not ok and wit["kind"] == "fp_functor"
    assert check_fp_functors(split_demo())[0]
    # the catalog contains a map recovering plain exactness: some u with
    # F_u(Z/d) = Z/d for every divisor
    cat4 = fp_catalog(4, 2)
    found = any(
        all(fp_value(u, Z(4, d) if d > 1 else Z(4)).module ==
            (Z(4, d) if d > 1 else Z(4)) for d in (1, 2, 4))
        for u in cat4)
    assert found


FP_CATALOG_CASES = [(n, depth) for n in range(2, 17) for depth in (0, 1, 2)] + [(24, 1)]


@pytest.mark.parametrize("modulus,depth", FP_CATALOG_CASES,
                         ids=[f"{n}-{d}" for n, d in FP_CATALOG_CASES])
def test_fp_catalog_matches_reference(modulus, depth):
    assert fp_catalog(modulus, depth) == reference_fp_catalog(modulus, depth)


@pytest.mark.parametrize("modulus", range(2, 13))
def test_fp_invariants_match_evaluation(modulus):
    divs = divisors(modulus)
    for u in reference_fp_candidates(modulus, 2):
        for d in divs:
            expected = fp_value(u, CanonicalModule.cyclic(modulus, d)).module.invariants
            assert fp_invariants(u, d) == expected, (u, d)


ORACLE_MODULI = (4, 8, 9, 12, 16, 24)


def _oracle_sequences(modulus):
    return [random_ses(modulus, seed=f"oracle:{i}", max_gens=3) for i in range(40)]


@pytest.mark.parametrize("modulus", ORACLE_MODULI)
def test_fp_verdicts_match_reference(modulus):
    # exactness by subgroup orders against canonical induced maps, per map
    catalog = fp_catalog(modulus, DEFAULT_BOUNDS.fp_depth)
    for seq in _oracle_sequences(modulus):
        for u in catalog:
            assert fp_functor_exact(u, seq) == reference_fp_functor_exact(u, seq), (u, seq)


@pytest.mark.parametrize("modulus", ORACLE_MODULI)
def test_pp_verdicts_match_reference(modulus):
    b = DEFAULT_BOUNDS
    catalog = enumerate_pp(modulus, b.pp_free, b.pp_exists, b.pp_rows)
    for seq in _oracle_sequences(modulus):
        mods = (seq.left, seq.middle, seq.right)
        for phi in catalog:
            phis = [cached_eval_pp(phi, m) for m in mods]
            for psi in catalog:
                psis = [cached_eval_pp(PpPair.of(phi, psi).psi, m) for m in mods]
                assert (pp_pair_exact(phis, psis, seq, phi.free_count)
                        == reference_pp_pair_exact(phi, psi, seq)), (phi, psi, seq)


@pytest.mark.parametrize("modulus", (4, 6, 8, 9, 12, 18))
def test_checkers_match_reference(modulus):
    # the checkers loop over the verdicts compared above; these moduli add
    # 6 and 18 to the ones covered there
    for seq in _oracle_sequences(modulus):
        assert check_fp_functors(seq) == reference_check_fp_functors(seq, DEFAULT_BOUNDS)
        assert check_pp_pairs(seq) == reference_check_pp_pairs(seq, DEFAULT_BOUNDS)


TABLE_MODULI = (4, 6, 8, 9, 12)


@pytest.mark.parametrize("modulus", TABLE_MODULI)
def test_module_tables_match_per_entry_terms(modulus):
    # the table reads pp terms off the catalog formula equivalent to each
    # conjunction; every entry must be the term fp_term and eval_pp give
    b = DEFAULT_BOUNDS
    maps = fp_catalog(modulus, b.fp_depth)
    formulas = enumerate_pp(modulus, b.pp_free, b.pp_exists, b.pp_rows)
    module_terms.cache_clear()
    for chain in reference_divisor_chains(modulus, 3):
        module = Z(modulus, *chain)
        table = module_terms(module, b)
        for i, u in enumerate(maps):
            assert table.fp(i) == fp_term(u, module), (module, u)
        for i, phi in enumerate(formulas):
            p = eval_pp(phi, module)
            for j, psi in enumerate(formulas):
                q = eval_pp(PpPair.of(phi, psi).psi, module)
                expected = InducedTerm(p.ambient_orders, p.key, q.key,
                                       p.cardinality // q.cardinality)
                assert table.pp(i, j) == expected, (module, phi, psi)


def test_module_tables_evaluate_conjunctions_outside_the_catalog():
    # one row keeps 7 of the 8 classes at N=8, so some conjunction has no
    # equivalent catalog formula and is evaluated itself
    bounds = Bounds(pp_rows=1)
    formulas = enumerate_pp(8, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    assert len(formulas) == 7
    assert any(not isinstance(c, int) for c in pp_conjunctions(8, 1, 2, 1))
    assert all(isinstance(c, int) for c in pp_conjunctions(8, 1, 2, 2))
    for chain in reference_divisor_chains(8, 3):
        module = Z(8, *chain)
        table = module_terms(module, bounds)
        for i, phi in enumerate(formulas):
            p = eval_pp(phi, module)
            for j, psi in enumerate(formulas):
                q = eval_pp(PpPair.of(phi, psi).psi, module)
                assert (table.pp(i, j).relations, table.pp(i, j).order) == (
                    q.key, p.cardinality // q.cardinality), (module, phi, psi)


@pytest.mark.parametrize("modulus", TABLE_MODULI)
def test_table_checkers_match_reference(modulus):
    # 200 seeded draws; each is checked with every table cold, then warm
    expected = {}
    for i in range(200):
        seq = random_ses(modulus, seed=f"tables:{i}", max_gens=3)
        if seq not in expected:
            expected[seq] = (reference_check_fp_functors(seq, DEFAULT_BOUNDS),
                             reference_check_pp_pairs(seq, DEFAULT_BOUNDS))
        module_terms.cache_clear()
        for _ in ("cold", "warm"):
            assert (check_fp_functors(seq), check_pp_pairs(seq)) == expected[seq], seq
    assert len(expected) > 60


@pytest.mark.parametrize("modulus", (4, 6, 8, 9, 12))
def test_eval_pp_matches_direct_kernel(modulus):
    catalog = enumerate_pp(modulus, 1, 2, 2)
    formulas = set(catalog) | {PpPair.of(phi, psi).psi for phi in catalog for psi in catalog}
    for chain in reference_divisor_chains(modulus, 3):
        module = Z(modulus, *chain)
        for formula in formulas:
            assert eval_pp(formula, module).gens == reference_eval_pp_gens(formula, module)


def test_induced_exact_rejects_ill_defined_maps():
    # terms of F(Z/4) = G/R by hand: a map that does not carry G into G or
    # R into R gives no verdict but raises
    ident = ModuleMap.identity(Z(4, 4))
    whole = InducedTerm((4,), ((1,),), ((4,),), 4)     # Z/4 / 0
    halved = InducedTerm((4,), ((2,),), ((4,),), 2)    # 2Z/4 / 0
    mod_two = InducedTerm((4,), ((1,),), ((2,),), 2)   # Z/4 / 2Z/4

    def exact(*terms):
        return InducedMaps(ident, ident).exact(*terms, blocks=1)

    assert exact(whole, whole, whole) is False
    with pytest.raises(InternalCheckError, match="ill-defined"):
        exact(whole, halved, whole)
    with pytest.raises(InternalCheckError, match="ill-defined"):
        exact(mod_two, whole, whole)


def test_induced_maps_reject_ill_defined_maps_in_a_group():
    # the carrier checks run once per carrier triple, at its first entry; a
    # failing one raises and is not kept, so it raises again on reuse, and
    # the relation checks run for every entry of a kept triple (mod_two has
    # the carriers of whole)
    ident = ModuleMap.identity(Z(4, 4))
    whole = InducedTerm((4,), ((1,),), ((4,),), 4)
    halved = InducedTerm((4,), ((2,),), ((4,),), 2)
    mod_two = InducedTerm((4,), ((1,),), ((2,),), 2)
    maps = InducedMaps(ident, ident)
    for _ in ("first use", "reuse"):
        with pytest.raises(InternalCheckError, match="ill-defined"):
            maps.exact(whole, halved, whole, blocks=1)
    assert maps.exact(whole, whole, whole, blocks=1) is False
    for _ in ("first use", "reuse"):
        with pytest.raises(InternalCheckError, match="ill-defined"):
            maps.exact(mod_two, whole, whole, blocks=1)
    assert maps.exact(whole, whole, whole, blocks=1) is False


@pytest.mark.parametrize("modulus,bounds", [(8, DEFAULT_BOUNDS), (9, DEFAULT_BOUNDS),
                                            (4, Bounds(pp_free=2, pp_exists=1, pp_rows=1)),
                                            (9, Bounds(pp_free=2, pp_exists=1, pp_rows=1))])
def test_shared_induced_maps_match_fresh_ones(modulus, bounds):
    # one InducedMaps judging a sequence's fp and pp entries in shuffled
    # order shares its pushes between entries with equal carriers, fp and pp
    # ones alike; each entry must get the verdict a fresh InducedMaps gives
    rng = random.Random(f"shuffled:{modulus}")
    verdicts = set()
    for s in range(16):
        seq = random_ses(modulus, seed=f"shuffled:{s}", max_gens=3)
        tables = [module_terms(m, bounds) for m in (seq.left, seq.middle, seq.right)]
        entries = [([t.fp(i) for t in tables], u.domain.ngens)
                   for i, u in enumerate(tables[0].fp_maps)]
        n = len(tables[0].pp_formulas)
        entries += [([t.pp(i, j) for t in tables], bounds.pp_free)
                    for i in range(n) for j in range(n)]
        rng.shuffle(entries)
        shared = InducedMaps(seq.f, seq.g)
        for terms, blocks in entries:
            verdict = shared.exact(*terms, blocks=blocks)
            assert verdict == InducedMaps(seq.f, seq.g).exact(*terms, blocks=blocks), seq
            verdicts.add(verdict)
        assert len(shared._carriers) < len(entries)
    assert verdicts == {True, False}


def test_pp_checker_examples():
    ok, wit = check_pp_pairs(z4_nonpure())
    assert not ok
    # documented witness: (x = x) / (exists y: x = 2y)
    assert wit["phi"] == "0 = 0"
    assert wit["psi"] == "E y1 : x1 + 2y1 = 0"
    assert check_pp_pairs(split_demo())[0]


def test_tensor_checker_examples():
    ok, wit = check_tensor(z4_nonpure())
    assert not ok and wit == {"kind": "tensor", "cyclic": 2}
    assert check_tensor(split_demo())[0]


def test_dual_split_examples():
    ok, wit = check_dual_split(z4_nonpure())
    assert not ok
    assert check_dual_split(split_demo())[0]
    assert check_dual_split(identity_seq(Z(4, 4)))[0]


def test_dual_split_reports_a_dual_that_is_not_exact(monkeypatch):
    real = purity.dual_map

    def zero_dual(f):
        d = real(f)
        return ModuleMap.zero(d.domain, d.codomain)

    monkeypatch.setattr(purity, "dual_map", zero_dual)
    with pytest.raises(InternalCheckError, match="dual of an exact sequence failed exactness"):
        check_dual_split(z4_nonpure())


def _fp_step_formulas(u):
    """For u: b -> a, phi_u = AND_j (b_j x_j = 0) and
    psi_u = E y : AND_i (a_i y_i = 0) & AND_j (x_j = sum_i u_ij y_i)."""
    b, a = u.domain.invariants, u.codomain.invariants
    k, m = len(b), len(a)
    phi = PpFormula(k, 0, IntMatrix.from_rows([[bj if j == t else 0 for t in range(k)]
                                               for j, bj in enumerate(b)], cols=k),
                    IntMatrix.zeros(k, 0))
    a_rows = [[0] * k for _ in a] + [[int(j == t) for t in range(k)] for j in range(k)]
    b_rows = [[ai if i == s else 0 for s in range(m)] for i, ai in enumerate(a)]
    b_rows += [[-u.matrix.entries[i][j] for i in range(m)] for j in range(k)]
    psi = PpFormula(k, m, IntMatrix.from_rows(a_rows, cols=k),
                    IntMatrix.from_rows(b_rows, cols=m))
    return phi, psi


@pytest.mark.parametrize("modulus", [4, 6, 8, 9, 12])
def test_fp_functor_is_a_pp_pair(modulus):
    # the fp -> pp step: F_u(X) = phi_u(X) / psi_u(X), key for key
    modules = _modules_with_bounded_gens(modulus, 3)
    pairs = 0
    for u in fp_catalog(modulus, 2):
        if not u.domain.ngens:
            continue
        phi, psi = _fp_step_formulas(u)
        for x in modules:
            term = fp_term(u, x)
            assert eval_pp(phi, x).key == term.carrier, (u, x)
            assert eval_pp(psi, x).key == term.relations, (u, x)
            pairs += 1
    assert pairs >= len(modules)


def test_report_canonical_counterexample():
    rep = purity_report(z4_nonpure())
    assert rep.consensus
    assert all(v is False for v in rep.verdicts.values())
    assert set(rep.timings) == set(rep.verdicts)


def test_report_split_demo():
    rep = purity_report(split_demo())
    assert rep.consensus
    assert all(rep.verdicts.values())
    assert all(w is None for w in rep.witnesses.values())


@pytest.mark.parametrize("n_mod", [4, 8, 9])
def test_checkers_agree_on_random_sequences(n_mod):
    for i in range(15):
        seq = random_ses(n_mod, seed=f"agree:{i}")
        rep = purity_report(seq)
        assert rep.consensus, (n_mod, i, rep.verdicts)
        assert rep.verdicts["split"] == (splitting_section(seq) is not None)


def test_split_implies_all_true():
    for i in range(30):
        seq = random_ses(8, seed=f"imp:{i}")
        if splitting_section(seq) is not None:
            rep = purity_report(seq)
            assert all(rep.verdicts.values())


def random_automorphism(module, rng):
    for _ in range(200):
        f = random_hom(module, module, rng)
        if f.is_bijective():
            return f
    raise AssertionError("no automorphism found")


def test_isomorphism_invariance():
    rng = random.Random("iso")
    for i in range(6):
        seq = random_ses(8, seed=f"iso:{i}", max_gens=2)
        a_l = random_automorphism(seq.left, rng)
        a_m = random_automorphism(seq.middle, rng)
        a_n = random_automorphism(seq.right, rng)
        f2 = a_m @ seq.f @ inverse(a_l)
        g2 = a_n @ seq.g @ inverse(a_m)
        seq2 = ShortSequence.from_maps(f2, g2)
        assert purity_report(seq2).verdicts == purity_report(seq).verdicts


def test_direct_sum_conjunction():
    pairs = [
        (z4_nonpure(), split_demo()),
        (split_demo(), split_demo()),
        (z4_nonpure(), z4_nonpure()),
    ]
    for a, b in pairs:
        total = direct_sum_sequences(a, b)
        ra, rb, rt = purity_report(a), purity_report(b), purity_report(total)
        for name in rt.verdicts:
            assert rt.verdicts[name] == (ra.verdicts[name] and rb.verdicts[name])


def test_harness_deterministic_and_consistent():
    s1 = equivalence_harness(4, trials=40, seed=11)
    s2 = equivalence_harness(4, trials=40, seed=11)
    assert s1 == s2
    assert s1.disagreements == 0
    assert 0 < s1.pure_count <= 40


def test_harness_jobs_do_not_change_output():
    s1 = equivalence_harness(4, trials=24, seed=3, jobs=1)
    s2 = equivalence_harness(4, trials=24, seed=3, jobs=2)
    assert s1 == s2


def test_harness_builds_catalogs_before_forking():
    # catalogs built by the parent are in its own caches; a build that
    # happened only inside forked workers would leave them empty here
    enumerate_pp.cache_clear()
    fp_catalog.cache_clear()
    pooled = equivalence_harness(8, 6, seed=1, jobs=2)
    for build, args in ((enumerate_pp, (8, 1, 2, 2)), (fp_catalog, (8, 2))):
        before = build.cache_info()
        build(*args)
        after = build.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert equivalence_harness(8, 6, seed=1, jobs=1) == pooled


def test_harness_single_split_trial():
    # find a seed whose first sequence is split, then run one trial
    seed = None
    for cand in range(50):
        if splitting_section(random_ses(4, seed=f"{cand}:0")) is not None:
            seed = cand
            break
    assert seed is not None
    summary = equivalence_harness(4, trials=1, seed=seed)
    assert summary.pure_count == 1
    assert summary.disagreements == 0


def test_harness_rejects_bad_args():
    with pytest.raises(InputError):
        equivalence_harness(4, trials=0, seed=1)
    with pytest.raises(InputError):
        equivalence_harness(1, trials=5, seed=1)
    with pytest.raises(InputError):
        purity_report(z4_nonpure(), Bounds(pp_free=0))
    # catalogs of one trivial entry, which would call every sequence pure
    for bad in (Bounds(fp_depth=0), Bounds(pp_free=2, pp_rows=0),
                Bounds(pp_free=3, pp_exists=0, pp_rows=0)):
        with pytest.raises(InputError):
            purity_report(z4_nonpure(), bad)
        with pytest.raises(InputError):
            equivalence_harness(4, trials=3, seed=1, bounds=bad)
    for good in (Bounds(fp_depth=1), Bounds(pp_free=1, pp_exists=0, pp_rows=0),
                 Bounds(pp_free=2, pp_rows=1)):
        good.validate()



@pytest.mark.parametrize("modulus", [4, 6, 8, 9, 12])
def test_harness_matches_reference(monkeypatch, modulus):
    # 4 CPUs, so that 3 workers fork here too, with shares of 14, 13 and 13
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for seed in (1, 2, 3):
        expected = reference_harness(modulus, 40, seed)
        for jobs in (1, 2, 3):
            assert equivalence_harness(modulus, 40, seed, jobs=jobs) == expected, (seed, jobs)


def test_harness_memo_lasts_one_call(monkeypatch):
    calls = []
    report = purity.purity_report
    monkeypatch.setattr(purity, "purity_report", lambda seq, bounds: calls.append(seq) or
                        report(seq, bounds))
    distinct = len({random_ses(8, seed=f"11:{i}") for i in range(40)})
    assert distinct < 40  # some draws repeat, and each is checked once
    for _ in range(2):
        calls.clear()
        equivalence_harness(8, 40, seed=11)
        assert len(calls) == len(set(calls)) == distinct


@pytest.mark.parametrize("jobs,round_size", [(1, 4096), (2, 4096), (3, 4096), (3, 16)])
def test_each_distinct_draw_is_checked_once(monkeypatch, tmp_path, jobs, round_size):
    # every purity_report call, forked children's included, appends a line;
    # 40 trials in rounds of 16 span three rounds
    modulus, trials, seed = 8, 40, 11
    expected = reference_harness(modulus, trials, seed)
    first = {}
    for i in range(trials):
        first.setdefault(repr(random_ses(modulus, seed=f"{seed}:{i}")), i)
    log = tmp_path / "reports.txt"
    report = purity.purity_report

    def logged(seq, bounds):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {seq!r}\n")
        return report(seq, bounds)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(purity, "HARNESS_ROUND", round_size)
    monkeypatch.setattr(purity, "purity_report", logged)
    assert equivalence_harness(modulus, trials, seed, jobs=jobs) == expected
    checked = [line.split(" ", 1) for line in log.read_text().splitlines()]
    seqs = [seq for _, seq in checked]
    assert len(seqs) == len(set(seqs))
    assert set(seqs) == set(first)
    # the worker whose share i::jobs holds the first draw checks it, in the
    # first draw's round; worker 0 is this process
    workers = {}
    for pid, seq in checked:
        i = first[seq]
        assert (int(pid) == os.getpid()) == (i % jobs == 0), (i, jobs)
        workers.setdefault((i // round_size, i % jobs), set()).add(pid)
    assert all(len(pids) == 1 for pids in workers.values())


def test_harness_fills_shared_tables_before_forking(monkeypatch):
    # with two workers, a module read by both has its table filled in this
    # process; one read only by the child's sequences is left to the child
    modulus, trials, seed = 8, 40, 11
    readers = {}
    seen = set()
    for i in range(trials):
        seq = random_ses(modulus, seed=f"{seed}:{i}")
        if seq not in seen:
            seen.add(seq)
            for m in (seq.left, seq.middle, seq.right):
                readers.setdefault(m, set()).add(i % 2)
    module_terms.cache_clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    equivalence_harness(modulus, trials, seed, jobs=2)
    tables = {m: module_terms(m, DEFAULT_BOUNDS) for m in readers}
    filled = {m for m, t in tables.items() if None not in t._fp and None not in t._pp}
    assert {m for m, ks in readers.items() if ks == {0, 1}} <= filled
    child_only = {m for m, ks in readers.items() if ks == {1}}
    assert child_only and not child_only & filled


def test_harness_refuses_trials_over_budget_before_drawing(monkeypatch):
    monkeypatch.setattr(purity, "random_ses", lambda *a, **k: pytest.fail("drew a trial"))
    with pytest.raises(InputError, match=f"over the budget of {MAX_TRIALS}"):
        equivalence_harness(4, MAX_TRIALS + 1, seed=1)


# Fork-split failures.  The worker k of w runs trials k::w, so with jobs=2
# a sequence drawn at an odd trial and at no even one reaches the child
# alone, and one drawn at an even trial and at no odd one, the parent alone.
FORK_CASE = dict(modulus=4, trials=12, seed=5)


def _drawn_only_by(worker):
    draws = [random_ses(FORK_CASE["modulus"], seed=f"{FORK_CASE['seed']}:{i}")
             for i in range(FORK_CASE["trials"])]
    others = set(draws[1 - worker::2])
    return next(seq for seq in draws[worker::2] if seq not in others)


def _fail_on(monkeypatch, seq, action):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    report = purity.purity_report

    def patched(s, bounds):
        if s == seq:
            action()
        return report(s, bounds)

    monkeypatch.setattr(purity, "purity_report", patched)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _defect():
    raise InternalCheckError("planted defect")


def test_child_exception_is_raised_in_parent(monkeypatch, capsys):
    _fail_on(monkeypatch, _drawn_only_by(1), _defect)
    with pytest.raises(InternalCheckError, match="planted defect"):
        equivalence_harness(**FORK_CASE, jobs=2)
    _assert_no_children()
    argv = ["random", "--modulus", str(FORK_CASE["modulus"]), "--trials",
            str(FORK_CASE["trials"]), "--seed", str(FORK_CASE["seed"]), "--jobs", "2"]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal defect: planted defect\n"
    _assert_no_children()


def test_killed_child_is_an_internal_defect(monkeypatch):
    _fail_on(monkeypatch, _drawn_only_by(1), lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(InternalCheckError, match=r"harness worker 1 ended without a "
                                                 r"result \(signal 9\)"):
        equivalence_harness(**FORK_CASE, jobs=2)
    _assert_no_children()


def test_unpicklable_child_exception_is_an_internal_defect(monkeypatch):
    class Local(Exception):  # a local class cannot be pickled
        pass

    def raise_local():
        raise Local("not sent")

    _fail_on(monkeypatch, _drawn_only_by(1), raise_local)
    with pytest.raises(InternalCheckError, match="harness worker 1 ended without a result"):
        equivalence_harness(**FORK_CASE, jobs=2)
    _assert_no_children()


def test_parent_failure_kills_and_reaps_children(monkeypatch):
    # the child sleeps on its own sequence; the parent is interrupted on its
    # own one and must kill the child rather than wait for it
    child_seq, parent_seq = _drawn_only_by(1), _drawn_only_by(0)

    def act(seq):
        if seq == child_seq:
            time.sleep(60)
        elif seq == parent_seq:
            raise KeyboardInterrupt

    report = purity.purity_report
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(purity, "purity_report", lambda s, bounds: act(s) or report(s, bounds))
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        equivalence_harness(**FORK_CASE, jobs=2)
    assert time.perf_counter() - t0 < 30
    _assert_no_children()


def test_harness_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert purity.harness_workers(4, 100) == 1
    assert equivalence_harness(4, 12, seed=5, jobs=2) == reference_harness(4, 12, 5)


# sha256 and size of the fp catalog at depth 2 by modulus; a member is its
# domain invariants, codomain invariants and matrix.  The members are those
# of hom presentations taken mod N: N=72 keeps 454 maps, where the integer
# Smith form once gave 456, and the members at N=24 and 36 moved then too.
FP_CATALOG_SHA256 = {
    8: (33, "00de8c3fe00c64ee4c18ada4f44ce3cb48c177ce38372cafe5b8aa0f289daef7"),
    12: (36, "6e14281fcd6a94c9d1b954077ff93d54e7eaf0cf0e087fecb03c59a3cead3e98"),
    24: (112, "d425c3d5938b45ae1e9d0f616135b49ef6dae093556ca206cb6b17eb95aad87b"),
    36: (150, "01bad6b1ccac99b5e0d2e7196f14f01fdd235845a5fe1473dbed213749e13eae"),
    72: (454, "7aabb189a6ef3187c4e33777b81bd0297f468bf2ee49ab74a1c9b8094d9c94bb"),
}


@pytest.mark.parametrize("modulus", sorted(FP_CATALOG_SHA256))
def test_fp_catalog_is_pinned(modulus):
    # reference_fp_catalog draws its candidates from the same hom_module
    # basis, so it moves with it; these hashes do not
    records = [[list(u.domain.invariants), list(u.codomain.invariants), u.matrix.tolists()]
               for u in fp_catalog(modulus, 2)]
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert (len(records), hashlib.sha256(blob).hexdigest()) == FP_CATALOG_SHA256[modulus]


# sha256 of the d-torsion subgroups' generators, project and lift matrices,
# as the Hermite kernel and the Smith reduction over Z/N make them (the
# integer Smith reduction that made them before gave another basis)
TORSION_PRESENTATIONS_SHA256 = "3b136c50c6fd6a0fb3da056cf00a895fbbccf83f990ff9b42f782533d682108e"


def test_torsion_presentations_are_pinned():
    # the hom_lifting witness is an element of the d-torsion subgroup, listed
    # through its presentation, so a kernel change that moves one fails here
    records = []
    for n in (4, 8, 9, 12, 24):
        for chain in reference_divisor_chains(n, 3):
            for d in divisors(n)[1:]:
                sub = purity._torsion_subgroup(Z(n, *chain), d)
                pres = sub.presentation
                records.append([n, list(chain), d, [list(g) for g in sub.gens],
                                pres.project.tolists(), pres.lift.tolists()])
    assert len(records) == 860
    blob = json.dumps(records, separators=(",", ":"), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TORSION_PRESENTATIONS_SHA256
