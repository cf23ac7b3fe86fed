import hashlib
import json
import os
import random
import signal
import time

import pytest

from zpure.errors import InputError, InternalCheckError
from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    direct_sum,
    divisors,
    is_split,
    random_hom,
    random_ses,
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
    induced_exact,
    module_terms,
    purity_report,
)
from zpure import cli, purity
from zpure.funcat import eval_fp_functor
from zpure.ppdef import PpFormula, PpPair, enumerate_pp, eval_pp
from zpure.zmodlin import IntMatrix

from helpers import direct_sum_sequences, fp_functor_exact, inverse, pp_pair_exact
from oracles import (
    divisor_chains,
    reference_check_fp_functors,
    reference_check_pp_pairs,
    reference_eval_pp_gens,
    reference_fp_candidates,
    reference_fp_catalog,
    reference_fp_functor_exact,
    reference_harness,
    reference_pp_pair_exact,
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
        all(eval_fp_functor(u, Z(4, d) if d > 1 else Z(4)) ==
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
            expected = eval_fp_functor(u, CanonicalModule.cyclic(modulus, d)).invariants
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
            phis = [eval_pp(phi, m) for m in mods]
            for psi in catalog:
                psis = [eval_pp(PpPair.of(phi, psi).psi, m) for m in mods]
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
    # conjunction; every entry must be the term the per-entry caches give
    b = DEFAULT_BOUNDS
    maps = fp_catalog(modulus, b.fp_depth)
    formulas = enumerate_pp(modulus, b.pp_free, b.pp_exists, b.pp_rows)
    module_terms.cache_clear()
    for chain in divisor_chains(modulus, 3):
        module = Z(modulus, *chain)
        table = module_terms(module, b)
        for i, u in enumerate(maps):
            assert table.fp(i) == fp_term(u, module), (module, u)
        for i, phi in enumerate(formulas):
            p = eval_pp(phi, module)
            for j, psi in enumerate(formulas):
                q = eval_pp(PpPair.of(phi, psi).psi, module)
                expected = InducedTerm(p.ambient_orders, p.gens, p.key, q.key,
                                       p.cardinality // q.cardinality)
                assert table.pp(i, j) == expected, (module, phi, psi)


def test_module_tables_evaluate_conjunctions_outside_the_catalog():
    # one row keeps 7 of the 8 classes at N=8, so some conjunction has no
    # equivalent catalog formula and is evaluated itself
    bounds = Bounds(pp_rows=1)
    formulas = enumerate_pp(8, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    assert len(formulas) == 7
    assert any(not isinstance(c, int) for c in purity._pp_conjunctions(8, bounds))
    assert all(isinstance(c, int) for c in purity._pp_conjunctions(8, DEFAULT_BOUNDS))
    for chain in divisor_chains(8, 3):
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
    for chain in divisor_chains(modulus, 3):
        module = Z(modulus, *chain)
        for formula in formulas:
            assert eval_pp(formula, module).gens == reference_eval_pp_gens(formula, module)


def test_induced_exact_rejects_ill_defined_maps():
    # terms of F(Z/4) = G/R by hand: a map that does not carry G into G or
    # R into R gives no verdict but raises
    ident = ModuleMap.identity(Z(4, 4))
    whole = InducedTerm((4,), ((1,),), ((1,),), ((4,),), 4)     # Z/4 / 0
    halved = InducedTerm((4,), ((2,),), ((2,),), ((4,),), 2)    # 2Z/4 / 0
    mod_two = InducedTerm((4,), ((1,),), ((1,),), ((2,),), 2)   # Z/4 / 2Z/4
    assert induced_exact(ident, ident, whole, whole, whole, blocks=1) is False
    with pytest.raises(InternalCheckError, match="ill-defined"):
        induced_exact(ident, ident, whole, halved, whole, blocks=1)
    with pytest.raises(InternalCheckError, match="ill-defined"):
        induced_exact(ident, ident, mod_two, whole, whole, blocks=1)


def test_induced_maps_reject_ill_defined_maps_in_a_group():
    # the carrier checks run once per group, at its first entry; a failing
    # one raises and is not kept, so it raises again on reuse, and the
    # relation checks run for every entry of a kept group
    ident = ModuleMap.identity(Z(4, 4))
    whole = InducedTerm((4,), ((1,),), ((1,),), ((4,),), 4)
    halved = InducedTerm((4,), ((2,),), ((2,),), ((4,),), 2)
    mod_two = InducedTerm((4,), ((1,),), ((1,),), ((2,),), 2)
    maps = InducedMaps(ident, ident)
    for _ in ("first use", "reuse"):
        with pytest.raises(InternalCheckError, match="ill-defined"):
            maps.exact(whole, halved, whole, blocks=1, group="halved")
    assert maps.exact(whole, whole, whole, blocks=1, group="whole") is False
    for _ in ("first use", "reuse"):
        with pytest.raises(InternalCheckError, match="ill-defined"):
            maps.exact(mod_two, whole, whole, blocks=1, group="whole")
    assert maps.exact(whole, whole, whole, blocks=1, group="whole") is False


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
        assert rep.verdicts["split"] == is_split(seq)


def test_split_implies_all_true():
    for i in range(30):
        seq = random_ses(8, seed=f"imp:{i}")
        if is_split(seq):
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
        if is_split(random_ses(4, seed=f"{cand}:0")):
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

# sha256 of the d-torsion subgroups' generators, project and lift matrices,
# as the Smith-form solver that first gave Subgroup its relations made them
TORSION_PRESENTATIONS_SHA256 = "e3aa5e90ba07e563c0c9086c6223ca59df679d9cc4787efe586ec4888341c358"


def test_torsion_presentations_are_pinned():
    # the hom_lifting witness is an element of the d-torsion subgroup, listed
    # through its presentation, so a kernel change that moves one fails here
    records = []
    for n in (4, 8, 9, 12, 24):
        for chain in divisor_chains(n, 3):
            for d in divisors(n)[1:]:
                sub = purity._torsion_subgroup(Z(n, *chain), d)
                pres = sub.presentation
                records.append([n, list(chain), d, [list(g) for g in sub.gens],
                                pres.project.tolists(), pres.lift.tolists()])
    assert len(records) == 860
    blob = json.dumps(records, separators=(",", ":"), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TORSION_PRESENTATIONS_SHA256
