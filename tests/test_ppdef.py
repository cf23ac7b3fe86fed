import random
from functools import lru_cache
from itertools import product

import pytest

from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    direct_sum,
    random_hom,
    random_module,
)
from zpure.ppdef import (
    PpFormula,
    PpPair,
    annihilator_formula,
    divisibility_formula,
    enumerate_pp,
    eval_pp,
    format_pp,
    induced_pp_map,
    pp_conjunctions,
    pp_pair_value,
    trivial_formula,
    _enumerate_row_spans,
)
from zpure import ppdef
from zpure.finmod import divisors
from zpure.zmodlin import IntMatrix

from oracles import (
    dedup_test_modules,
    pp_solution_set,
    prime_factor_count,
    reference_enumerate_pp,
    reference_formula_signature,
    reference_offered_formulas,
    reference_pp_conjunctions,
    reference_row_spans,
    reference_signature,
    span_mod,
)


def Z(n, *invs):
    return CanonicalModule(n, tuple(invs))


def eval_set(formula, module):
    sub = eval_pp(formula, module)
    return span_mod(sub.gens, sub.ambient_orders)


def brute_set(formula, module):
    a_rows = formula.a.tolists()
    b_rows = formula.b.tolists()
    return pp_solution_set(a_rows, b_rows, module.invariants)


def test_eval_examples():
    z4 = Z(4, 4)
    div2 = divisibility_formula(2, 4)
    assert eval_set(div2, z4) == frozenset({(0,), (2,)})
    assert eval_set(trivial_formula(), z4) == frozenset({(0,), (1,), (2,), (3,)})
    ann2 = annihilator_formula(2)
    assert eval_set(ann2, z4) == frozenset({(0,), (2,)})


@pytest.mark.parametrize("n_mod", [2, 3, 4, 6, 8])
def test_eval_against_bruteforce(n_mod):
    rng = random.Random(f"pp:{n_mod}")
    for _ in range(12):
        module = random_module(n_mod, rng, 2)
        if module.cardinality > 64:
            continue
        k = rng.randint(1, 2)
        m = rng.randint(0, 2)
        r = rng.randint(1, 2)
        a = IntMatrix.from_rows(
            [[rng.randrange(n_mod) for _ in range(k)] for _ in range(r)], cols=k)
        b = IntMatrix.from_rows(
            [[rng.randrange(n_mod) for _ in range(m)] for _ in range(r)], cols=m)
        formula = PpFormula(k, m, a, b)
        assert eval_set(formula, module) == brute_set(formula, module)


def test_eval_returns_subgroup():
    rng = random.Random("sub")
    for _ in range(10):
        module = random_module(8, rng, 2)
        formula = PpFormula(
            1, 1,
            IntMatrix.from_rows([[rng.randrange(8)]]),
            IntMatrix.from_rows([[rng.randrange(8)]]))
        els = eval_set(formula, module)
        orders = module.invariants
        assert tuple(0 for _ in orders) in els
        for x in els:
            for y in els:
                assert tuple((p + q) % d for p, q, d in zip(x, y, orders)) in els


def test_pair_value_examples():
    z4 = Z(4, 4)
    pair = PpPair.of(trivial_formula(), divisibility_formula(2, 4))
    assert pp_pair_value(pair, z4).module == Z(4, 2)
    pair_same = PpPair.of(divisibility_formula(2, 4), divisibility_formula(2, 4))
    assert pp_pair_value(pair_same, z4).module.is_zero()
    pair_eq = PpPair.of(annihilator_formula(2), divisibility_formula(2, 4))
    assert pp_pair_value(pair_eq, z4).module.is_zero()


def test_pair_containment_structural():
    # psi is stored conjoined with phi, so psi(M) <= phi(M) for free
    phi = divisibility_formula(2, 8)
    psi = annihilator_formula(4)
    pair = PpPair.of(phi, psi)
    m = Z(8, 8)
    phi_set = eval_set(pair.phi, m)
    psi_set = eval_set(pair.psi, m)
    assert psi_set <= phi_set


def test_induced_map_identity_and_zero():
    z4 = Z(4, 4)
    pair = PpPair.of(trivial_formula(), divisibility_formula(2, 4))
    ind = induced_pp_map(pair, ModuleMap.identity(z4))
    assert ind == ModuleMap.identity(ind.domain)
    z2 = Z(4, 2)
    ind0 = induced_pp_map(pair, ModuleMap.zero(z4, z2))
    assert ind0.is_zero_map()


def test_induced_map_against_elementwise_oracle():
    f = ModuleMap.from_rows(Z(4, 2), Z(4, 4), [[2]])
    pair = PpPair.of(trivial_formula(), divisibility_formula(2, 4))
    src = pp_pair_value(pair, f.domain)
    dst = pp_pair_value(pair, f.codomain)
    ind = induced_pp_map(pair, f, src, dst)
    # check: for every element of phi(dom), class of image == image of class
    for x in eval_set(pair.phi, f.domain):
        img = f.apply(x)
        assert ind.apply(src.express(x)) == dst.express(img)


def test_hom_preservation_and_functoriality():
    rng = random.Random("func")
    pair = PpPair.of(divisibility_formula(2, 8), divisibility_formula(4, 8))
    for _ in range(6):
        a = random_module(8, rng, 2)
        b = random_module(8, rng, 2)
        c = random_module(8, rng, 2)
        f = random_hom(a, b, rng)
        g = random_hom(b, c, rng)
        # f(phi(A)) <= phi(B) elementwise
        phi_a = eval_set(pair.phi, a)
        phi_b = eval_set(pair.phi, b)
        for x in phi_a:
            assert f.apply(x) in phi_b
        ind_f = induced_pp_map(pair, f)
        ind_g = induced_pp_map(pair, g)
        ind_gf = induced_pp_map(pair, g @ f)
        assert ind_gf == ind_g @ ind_f


def test_additivity_on_direct_sums():
    rng = random.Random("add")
    for _ in range(6):
        m1 = random_module(8, rng, 2)
        m2 = random_module(8, rng, 2)
        ds = direct_sum([m1, m2])
        formula = PpFormula(
            1, 1,
            IntMatrix.from_rows([[rng.randrange(8)], [rng.randrange(8)]]),
            IntMatrix.from_rows([[rng.randrange(8)], [rng.randrange(8)]]))
        c1 = eval_pp(formula, m1).cardinality
        c2 = eval_pp(formula, m2).cardinality
        cs = eval_pp(formula, ds.module).cardinality
        assert cs == c1 * c2


def test_catalog_contains_required_formulas():
    catalog = enumerate_pp(4, 1, 1, 1)
    sigs = {tuple(eval_set(f, m) for m in dedup_test_modules(4)) for f in catalog}
    for d in (1, 2, 4):
        dv = divisibility_formula(d, 4)
        an = annihilator_formula(d)
        assert tuple(eval_set(dv, m) for m in dedup_test_modules(4)) in sigs
        assert tuple(eval_set(an, m) for m in dedup_test_modules(4)) in sigs


def test_catalog_matches_bruteforce_dedup_count():
    # every 1-row formula with k=1, m <= 1 over Z/4, deduplicated by
    # brute-force evaluation on the same test modules
    mods = dedup_test_modules(4)
    seen = set()
    for m in (0, 1):
        for entries in product(range(4), repeat=1 + m):
            a = IntMatrix.from_rows([[entries[0]]])
            b = IntMatrix.from_rows([list(entries[1:])], cols=m)
            f = PpFormula(1, m, a, b)
            seen.add(tuple(frozenset(brute_set(f, mm)) for mm in mods))
    catalog = enumerate_pp(4, 1, 1, 1)
    assert len(catalog) == len(seen)


def test_catalog_quantifier_free_bounds():
    catalog = enumerate_pp(4, 1, 0, 0)
    assert catalog
    for f in catalog:
        assert f.bound_count == 0
        assert f.rows == 1


def test_catalog_deterministic():
    a = enumerate_pp(6, 1, 2, 2)
    b = enumerate_pp(6, 1, 2, 2)
    assert a == b
    assert a[0] == trivial_formula()  # the trivially-true class leads


# Catalogs of the sort-based enumerator that preceded the modular Hermite
# kernel, keyed by (modulus, free variables, bound variables, rows).
GOLDEN_CATALOGS = {
    (8, 1, 2, 2): ["0 = 0", "E y1 : x1 + 6y1 = 0", "E y1 : x1 + 4y1 = 0", "E y1 : x1 = 0",
                   "2x1 = 0", "4x1 = 0", "E y1 : 2x1 + 4y1 = 0",
                   "E y1 : 4y1 = 0 & x1 + 2y1 = 0"],
    (9, 1, 2, 2): ["0 = 0", "E y1 : x1 + 6y1 = 0", "E y1 : x1 = 0", "3x1 = 0"],
    (4, 2, 1, 1): ["0 = 0", "x2 = 0", "2x2 = 0", "x1 = 0", "x1 + x2 = 0", "x1 + 2x2 = 0",
                   "x1 + 3x2 = 0", "2x1 = 0", "2x1 + x2 = 0", "2x1 + 2x2 = 0",
                   "E y1 : x2 + 2y1 = 0", "E y1 : x1 + 2y1 = 0",
                   "E y1 : x1 + x2 + 2y1 = 0"],
    (6, 2, 1, 1): ["0 = 0", "x2 = 0", "2x2 = 0", "3x2 = 0", "x1 = 0", "x1 + x2 = 0",
                   "x1 + 2x2 = 0", "x1 + 3x2 = 0", "x1 + 4x2 = 0", "x1 + 5x2 = 0",
                   "2x1 = 0", "2x1 + x2 = 0", "2x1 + 2x2 = 0", "2x1 + 3x2 = 0",
                   "2x1 + 4x2 = 0", "2x1 + 5x2 = 0", "3x1 = 0", "3x1 + x2 = 0",
                   "3x1 + 2x2 = 0", "3x1 + 3x2 = 0"],
    (8, 1, 2, 1): ["0 = 0", "E y1 : x1 + 6y1 = 0", "E y1 : x1 + 4y1 = 0", "E y1 : x1 = 0",
                   "2x1 = 0", "4x1 = 0", "E y1 : 2x1 + 4y1 = 0"],
    (9, 1, 1, 2): ["0 = 0", "E y1 : x1 + 6y1 = 0", "E y1 : x1 = 0", "3x1 = 0"],
}


@pytest.mark.parametrize("bounds", sorted(GOLDEN_CATALOGS))
def test_catalog_matches_golden(bounds):
    assert [format_pp(f) for f in enumerate_pp(*bounds)] == GOLDEN_CATALOGS[bounds]


CATALOG_BOUNDS = sorted(
    {(n, 1, 2, 2) for n in range(2, 11)}
    | {(4, 2, 1, 1), (6, 2, 1, 1), (8, 1, 2, 1), (9, 1, 1, 2)}
    | {(n, 2, 1, 1) for n in range(2, 9)}
    | {(n, 1, 2, 3) for n in range(2, 9)})


def bounds_id(bounds):
    return "-".join(map(str, bounds))


@pytest.mark.parametrize("bounds", CATALOG_BOUNDS, ids=bounds_id)
def test_catalog_matches_reference_enumerator(bounds):
    catalog = enumerate_pp(*bounds)
    reference = reference_enumerate_pp(*bounds)
    assert [format_pp(f) for f in catalog] == [format_pp(f) for f in reference]
    assert catalog == reference


@pytest.mark.parametrize("modulus", range(1, 10))
def test_row_spans_match_full_scan(modulus):
    for width in (1, 2, 3):
        for max_rows in (0, 1, 2):
            assert (list(_enumerate_row_spans(modulus, width, max_rows))
                    == reference_row_spans(modulus, width, max_rows))
    for width in (1, 2):
        assert (list(_enumerate_row_spans(modulus, width, 3))
                == reference_row_spans(modulus, width, 3))


@pytest.mark.parametrize("bounds", [(n, 1, 3, 1) for n in (2, 4, 6, 8, 9)]
                         + [(4, 2, 2, 1), (6, 2, 2, 1), (4, 2, 3, 1)],
                         ids=bounds_id)
def test_wide_formulas_add_no_class(bounds):
    # r rows use at most r bound variables, so the scan stops at
    # min(pp_exists, pp_rows) of them; the reference scans every count up to
    # pp_exists and must keep the same catalog
    assert max(f.bound_count for f in ppdef._candidate_formulas(*bounds)) <= min(bounds[2:])
    catalog = enumerate_pp(*bounds)
    reference = reference_enumerate_pp(*bounds)
    assert [format_pp(f) for f in catalog] == [format_pp(f) for f in reference]


def test_row_span_scan_stops_at_an_empty_level():
    # a level's children come from its new lattices only, so a level that
    # adds none ends the scan: 10^9 levels cost nothing here
    assert list(_enumerate_row_spans(1, 3, 10 ** 9)) == []
    assert list(_enumerate_row_spans(2, 1, 10 ** 9)) == reference_row_spans(2, 1, 3)
    assert list(_enumerate_row_spans(4, 1, 10 ** 9)) == reference_row_spans(4, 1, 3)
    for bounds in ((1, 2, 10 ** 9, 2), (1, 2, 2, 10 ** 9)):
        assert enumerate_pp(*bounds) == (trivial_formula(2),)


# the conjunction table against its first construction, which conjoins and
# signs all n^2 formulas: every class found at the default bounds, misses
# with fewer rows (N=16 at one row misses 10 conjunctions) and with two free
# variables
CONJUNCTION_BOUNDS = ([(n, 1, 2, 2) for n in (1, 2, 4, 8, 9, 12, 16, 24, 36, 72)]
                      + [(8, 1, 2, 1), (16, 1, 2, 1), (32, 1, 1, 1), (72, 1, 1, 1)]
                      + [(n, 2, 1, 1) for n in (1, 4, 6, 8, 9)] + [(4, 2, 2, 2)])


@pytest.mark.parametrize("bounds", CONJUNCTION_BOUNDS, ids=bounds_id)
def test_conjunctions_match_reference(bounds):
    table = pp_conjunctions(*bounds)
    reference = reference_pp_conjunctions(*bounds)
    n = len(enumerate_pp(*bounds))
    assert len(table) == len(reference) == n * n
    for at, (got, want) in enumerate(zip(table, reference)):
        assert type(got) is type(want) and got == want, (bounds, divmod(at, n))
    if bounds == (16, 1, 2, 1):
        assert sum(not isinstance(c, int) for c in table) == 10


def _offered_formulas(monkeypatch, bounds):
    """Every formula the enumerator offers for ``bounds``, in order."""
    offered = []
    signature = ppdef._formula_signature

    def record(formula, modulus):
        offered.append(formula)
        return signature(formula, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(ppdef, "_formula_signature", record)
        enumerate_pp.__wrapped__(*bounds)
    return offered


@pytest.mark.parametrize("bounds", [(4, 1, 2, 2), (6, 1, 2, 2), (8, 1, 2, 2), (9, 1, 2, 2),
                                    (4, 2, 1, 1), (6, 2, 1, 1), (8, 2, 1, 1), (9, 2, 1, 1)],
                         ids=bounds_id)
def test_signature_equivalence_matches_evaluation(bounds):
    modulus = bounds[0]
    full = reference_offered_formulas(*bounds)
    if bounds[1:] == (1, 2, 2):
        spans = sum(len(reference_row_spans(modulus, 1 + m, 2)) for m in range(3))
        assert len(full) == 1 + 2 * len(divisors(modulus)) + spans
    assert list(ppdef._candidate_formulas(*bounds)) == full
    test_modules = dedup_test_modules(modulus)
    new = [ppdef._formula_signature(f, modulus) for f in full]
    ref = [reference_signature(f, test_modules) for f in full]
    # equal new signatures exactly when equal reference signatures
    assert len(set(new)) == len(set(ref)) == len(set(zip(new, ref)))


@lru_cache(maxsize=None)
def _uncapped_scan(bounds):
    """Every formula the catalog considers for ``bounds``, and its signature."""
    full = tuple(ppdef._candidate_formulas(*bounds))
    return full, tuple(ppdef._formula_signature(f, bounds[0]) for f in full)


@pytest.mark.parametrize("modulus", range(2, 13))
def test_one_variable_classes_within_bound(modulus):
    _, sigs = _uncapped_scan((modulus, 1, 2, 2))
    assert len(set(sigs)) <= 2 ** prime_factor_count(modulus)


@pytest.mark.parametrize("bounds", [(n, 1, 2, 2) for n in range(2, 13)]
                         + [(8, 1, 2, 1), (4, 2, 1, 1)], ids=bounds_id)
def test_capped_scan_is_a_prefix(monkeypatch, bounds):
    offered = _offered_formulas(monkeypatch, bounds)
    full, sigs = _uncapped_scan(bounds)
    assert offered == list(full[:len(offered)])
    kept = len(set(sigs[:len(offered)]))
    assert kept == len(enumerate_pp(*bounds)) == len(set(sigs))
    if len(offered) < len(full):
        # stopped by the class bound, right at the formula that reached it
        cap = 2 ** prime_factor_count(bounds[0])
        assert bounds[1] == 1
        assert kept == cap
        assert len(set(sigs[:len(offered) - 1])) == cap - 1


@pytest.mark.parametrize("bounds", [(1, 1, 2, 2), (1, 2, 1, 1), (1, 2, 2, 2), (1, 2, 3, 3),
                                    (1, 3, 2, 2)], ids=bounds_id)
def test_modulus_one_stops_at_its_one_class(monkeypatch, bounds):
    # N = 1 has no prime power, so every formula signs as the empty tuple
    # whatever the number of free variables: the scan keeps the trivial
    # formula it offers first and stops there
    offered = _offered_formulas(monkeypatch, bounds)
    full, sigs = _uncapped_scan(bounds)
    assert set(sigs) == {()}
    assert offered == list(full[:1])
    catalog = enumerate_pp(*bounds)
    assert catalog == full[:1] and str(catalog[0]) == "0 = 0"


def _same_classes(formulas, modulus):
    new = [ppdef._formula_signature(f, modulus) for f in formulas]
    ref = [reference_formula_signature(f, modulus) for f in formulas]
    return len(set(new)) == len(set(ref)) == len(set(zip(new, ref)))


@pytest.mark.parametrize("bounds", [(12, 2, 1, 1), (24, 2, 1, 1), (72, 1, 1, 1), (180, 1, 1, 1)],
                         ids=bounds_id)
def test_prime_power_signatures_match_every_divisor(bounds):
    # every formula the uncapped scan offers, and with one free variable
    # every conjunction the pp checker looks up, falls into the same classes
    # as when signed at every divisor d >= 2
    modulus = bounds[0]
    formulas = list(ppdef._candidate_formulas(*bounds))
    if bounds[1] == 1:
        catalog = enumerate_pp(*bounds)
        formulas += [PpPair.of(phi, psi).psi for phi in catalog for psi in catalog]
    assert _same_classes(formulas, modulus)


@pytest.mark.parametrize("modulus", (12, 24, 30, 36, 60, 72, 120))
def test_catalog_is_unchanged_by_prime_power_signing(monkeypatch, modulus):
    bounds = (modulus, 1, 2, 2)
    with monkeypatch.context() as patch:
        patch.setattr(ppdef, "_formula_signature", reference_formula_signature)
        reference = enumerate_pp.__wrapped__(*bounds)
    assert enumerate_pp(*bounds) == reference
    assert len(reference) == 2 ** prime_factor_count(modulus)


def test_format_parse_roundtrip():
    # the textual syntax is print-only: negative coefficients, bound
    # variables and two free variables each print as written here
    samples = [
        (trivial_formula(), "0 = 0"),
        (divisibility_formula(2, 4), "E y1 : x1 + 2y1 = 0"),
        (annihilator_formula(3), "3x1 = 0"),
        (PpFormula(2, 2,
                   IntMatrix.from_rows([[2, 0], [0, 1]]),
                   IntMatrix.from_rows([[3, 0], [1, -1]])),
         "E y1 y2 : 2x1 + 3y1 = 0 & x2 + y1 - y2 = 0"),
    ]
    for f, text in samples:
        assert format_pp(f) == text
