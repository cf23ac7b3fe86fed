"""Brute-force oracles, independent of the library's computation paths.

Everything here enumerates residue vectors or uses textbook formulas
directly; nothing calls back into the solver/SNF code it cross-checks.  The
exceptions are the reference pp and fp catalogs, the reference functor-law
validator, the reference congruence solver and the reference harness at the
end, which keep first constructions as the regression references for the
current ones.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd


def enumerate_solutions(A_rows, b, moduli, domain_modulus):
    """All x in (Z/domain_modulus)^k with A*x == b componentwise mod moduli."""
    k = len(A_rows[0]) if A_rows else 0
    sols = set()
    for x in product(range(domain_modulus), repeat=k):
        ok = True
        for row, rhs, m in zip(A_rows, b, moduli):
            if (sum(a * v for a, v in zip(row, x)) - rhs) % m:
                ok = False
                break
        if ok:
            sols.add(x)
    return sols


def span_mod(gens, moduli):
    """Subgroup of prod Z/moduli generated by integer vectors, as a frozenset."""
    n = len(moduli)
    zero = tuple(0 for _ in range(n))
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g[i] % moduli[i] for i in range(n)) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + v) % m for c, v, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def det_fraction(rows):
    """Determinant by exact fraction Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for j in range(n):
        piv = None
        for i in range(j, n):
            if m[i][j] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        inv = 1 / m[j][j]
        for i in range(j + 1, n):
            f = m[i][j] * inv
            if f:
                for c in range(j, n):
                    m[i][c] -= f * m[j][c]
    assert det.denominator == 1
    return int(det)


def elementary_invariant_factors(rows):
    """Invariant factors via gcds of k x k minors (textbook definition)."""
    from itertools import combinations

    nr = len(rows)
    nc = len(rows[0]) if rows else 0

    def minor_det(ris, cjs):
        sub = [[rows[i][j] for j in cjs] for i in ris]
        return det_fraction(sub)

    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ris in combinations(range(nr), k):
            for cjs in combinations(range(nc), k):
                g = gcd(g, minor_det(ris, cjs))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def all_homs(dom_invs, cod_invs):
    """All matrices of well-defined homomorphisms between two canonical modules.

    Enumerates candidate matrices entrywise and keeps those where each
    domain generator's order kills its image column.
    """
    k, n = len(dom_invs), len(cod_invs)
    ranges = [range(e) for e in cod_invs for _ in range(k)]
    out = []
    for flat in product(*ranges):
        mat = [list(flat[i * k:(i + 1) * k]) for i in range(n)]
        ok = True
        for j in range(k):
            for i in range(n):
                if (dom_invs[j] * mat[i][j]) % cod_invs[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(r) for r in mat))
    return out


def module_elements(invs):
    return list(product(*[range(d) for d in invs]))


def apply_matrix(mat, x, cod_invs):
    return tuple(sum(a * v for a, v in zip(row, x)) % e for row, e in zip(mat, cod_invs))


def torsion_lifting_facts(seq, d, y):
    """For 0 -> L -f-> M -g-> C -> 0 and y in C, by enumerating elements:
    (d*y == 0 in C, y in g(M[d]), ``pure_at(seq, d)``).

    By the snake lemma for multiplication by d, purity at d fails exactly
    when M[d] -> C[d] is not onto.
    """
    inv_m, inv_c = seq.middle.invariants, seq.right.invariants
    g = seq.g.matrix.tolists()
    killed = not any(d * v % e for v, e in zip(y, inv_c))
    lifts = any(apply_matrix(g, x, inv_c) == tuple(y) for x in module_elements(inv_m)
                if not any(d * v % e for v, e in zip(x, inv_m)))
    return killed, lifts, pure_at(seq, d)


def pure_at(seq, d):
    """A & dM == dA with A = f(L) in M, by enumerating elements: the
    definition of purity at d (Fuchs, Infinite Abelian Groups I, 1970, 26)."""
    inv_m = seq.middle.invariants
    A = {apply_matrix(seq.f.matrix.tolists(), a, inv_m)
         for a in module_elements(seq.left.invariants)}
    dM = {tuple(d * v % e for v, e in zip(x, inv_m)) for x in module_elements(inv_m)}
    dA = {tuple(d * v % e for v, e in zip(a, inv_m)) for a in A}
    return A & dM == dA


def pp_solution_set(A_rows, B_rows, invs):
    """Brute-force pp evaluation: free tuples x in M^k with a witness y in M^m."""
    k = len(A_rows[0]) if A_rows else 0
    m = len(B_rows[0]) if (B_rows and B_rows[0] is not None) else 0
    elems = module_elements(invs)
    sols = set()
    for xs in product(elems, repeat=k):
        found = False
        for ys in product(elems, repeat=m):
            ok = True
            for ri in range(len(A_rows)):
                for t, d in enumerate(invs):
                    acc = 0
                    for j in range(k):
                        acc += A_rows[ri][j] * xs[j][t]
                    for l in range(m):
                        acc += B_rows[ri][l] * ys[l][t]
                    if acc % d:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = True
                break
        if found:
            flat = tuple(v for x in xs for v in x)
            sols.add(flat)
    return sols


def reference_hermite_key(vectors, modulus, dim):
    """Row Hermite form of the lattice spanned by ``vectors`` and modulus*Z^dim.

    Sort-based integer elimination with no modular reduction: the reference
    the modular kernel ``zmodlin.hermite_key`` is checked against.
    """
    rows = [list(v) for v in vectors]
    for i in range(dim):
        rows.append([modulus if j == i else 0 for j in range(dim)])
    pivot_row = 0
    for j in range(dim):
        while True:
            nz = [i for i in range(pivot_row, len(rows)) if rows[i][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][j]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][j] // rows[i0][j]
                ri, r0 = rows[i], rows[i0]
                for c in range(j, dim):
                    ri[c] -= q * r0[c]
        nz = [i for i in range(pivot_row, len(rows)) if rows[i][j] != 0]
        if not nz:
            continue
        i0 = nz[0]
        rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
        if rows[pivot_row][j] < 0:
            rows[pivot_row] = [-v for v in rows[pivot_row]]
        p = rows[pivot_row][j]
        for i in range(pivot_row):
            if rows[i][j]:
                q = rows[i][j] // p
                ri, rp = rows[i], rows[pivot_row]
                for c in range(j, dim):
                    ri[c] -= q * rp[c]
        pivot_row += 1
    return tuple(tuple(r) for r in rows[:pivot_row])


def reference_hermite_kernel(rows, moduli, width):
    """``zmodlin.hermite_kernel`` as first defined: the tails of the rows of
    the whole normalized ``hermite_system`` key from len(moduli) on."""
    from zpure.zmodlin import hermite_system

    r = len(moduli)
    return [row[r:] for row in hermite_system(rows, moduli, width)[r:]]


# ---------------------------------------------------------------------------
# The pp catalog as first built: every row of [0, N)^width is reduced against
# every kept key, and formulas are deduplicated by evaluating them on test
# modules.  It uses the library's pp evaluation and Hermite kernel, which
# have oracles of their own above; it is the reference the Hermite-box
# enumerator and the Hermite signature of ``zpure.ppdef`` are checked against.


def dedup_test_modules(modulus):
    """Z/d for every divisor d >= 2, and Z/small + Z/N for the least one."""
    from zpure.finmod import CanonicalModule

    divs = [d for d in reference_divisors(modulus) if d >= 2]
    mods = [CanonicalModule.cyclic(modulus, d) for d in divs]
    if divs:
        small = divs[0]
        mods.append(CanonicalModule(modulus, (small, modulus)))
    return mods


@lru_cache(maxsize=32768)
def cached_eval_pp(formula, module):
    """``zpure.ppdef.eval_pp``, kept per (formula, module).  The pp oracles
    evaluate the same formulas on the same modules across many tests; the
    library keeps its evaluations in ``zpure.purity.ModuleTerms`` instead."""
    from zpure.ppdef import eval_pp

    return eval_pp(formula, module)


def reference_signature(formula, test_modules):
    """Hermite keys of the formula's evaluations on the test modules."""
    return tuple(cached_eval_pp(formula, m).key for m in test_modules)


def reference_formula_signature(formula, modulus):
    """``zpure.ppdef._formula_signature`` as it signed at every divisor
    d >= 2 of the modulus, not only at the prime powers."""
    from zpure.zmodlin import hermite_key

    k, m = formula.free_count, formula.bound_count
    rows = [b + a for a, b in zip(formula.a.entries, formula.b.entries)]
    sig = []
    for d in reference_divisors(modulus)[1:]:
        key = hermite_key(rows, (d,) * (m + k))
        sig.append(tuple(r[m:] for r in key[m:]))
    return tuple(sig)


def reference_row_spans(modulus, width, max_rows):
    """Row-span representatives from a scan of all modulus^width rows."""
    from zpure.zmodlin import hermite_key, hermite_reduce

    orders = (modulus,) * width
    zero_key = hermite_key([], orders)
    seen = {zero_key}
    level = [(zero_key, [])]
    reps = []
    all_rows = list(product(range(modulus), repeat=width))
    for _ in range(max_rows):
        nxt = []
        for key, rows in level:
            tried = set()
            for v in all_rows:
                red = hermite_reduce(v, key)
                if not any(red) or red in tried:
                    continue
                tried.add(red)
                new_key = hermite_key(key + (red,), orders)
                if new_key in seen:
                    continue
                seen.add(new_key)
                new_rows = rows + [v]
                nxt.append((new_key, new_rows))
                reps.append(new_rows)
        level = nxt
    return reps


def reference_offered_formulas(modulus, free_vars=1, max_bound=2, max_rows=2):
    """Every formula the catalog considers, in order and without the class
    bound: the fixed prefix, then one formula per reference row span."""
    from zpure.ppdef import (
        PpFormula,
        annihilator_formula,
        divisibility_formula,
        trivial_formula,
    )
    from zpure.zmodlin import IntMatrix

    offered = [trivial_formula(free_vars)]
    if free_vars == 1:
        if max_bound >= 1:
            offered += [divisibility_formula(d, modulus) for d in reference_divisors(modulus)]
        offered += [annihilator_formula(d) for d in reference_divisors(modulus)]
    for m in range(0, max_bound + 1):
        width = free_vars + m
        for rows in reference_row_spans(modulus, width, max_rows):
            a = IntMatrix.from_rows([r[:free_vars] for r in rows], cols=free_vars)
            b = IntMatrix.from_rows([r[free_vars:] for r in rows], cols=m)
            offered.append(PpFormula(free_vars, m, a, b))
    return offered


@lru_cache(maxsize=None)
def reference_enumerate_pp(modulus, free_vars=1, max_bound=2, max_rows=2):
    """The catalog in the order and with the representatives of
    ``zpure.ppdef.enumerate_pp``."""
    test_modules = tuple(dedup_test_modules(modulus))
    catalog = []
    seen_sigs = set()
    for formula in reference_offered_formulas(modulus, free_vars, max_bound, max_rows):
        sig = reference_signature(formula, test_modules)
        if sig not in seen_sigs:
            seen_sigs.add(sig)
            catalog.append(formula)
    return tuple(catalog)


def reference_pp_conjunctions(modulus, free_vars, max_bound, max_rows):
    """``zpure.ppdef.pp_conjunctions`` as first built, in ``zpure.purity``:
    every conjunction psi_j & phi_i is built and signed, n^2 formulas, and
    looked up among the signatures of the catalog."""
    from zpure.ppdef import PpPair, _formula_signature, enumerate_pp

    catalog = enumerate_pp(modulus, free_vars, max_bound, max_rows)
    where = {_formula_signature(phi, modulus): k for k, phi in enumerate(catalog)}
    conjunctions = []
    for phi in catalog:
        for psi in catalog:
            both = PpPair.of(phi, psi).psi
            conjunctions.append(where.get(_formula_signature(both, modulus), both))
    return tuple(conjunctions)


# ---------------------------------------------------------------------------
# The fp catalog as first built: each candidate map is deduplicated by the
# library's fp-functor evaluation (a hom group and a quotient module per
# cyclic test module).  It is the reference for the gcd-matrix signature of
# ``zpure.purity.fp_catalog``.


def reference_fp_candidates(modulus, depth):
    """Every candidate map u: b -> a of the fp catalog, in order."""
    from zpure.finmod import CanonicalModule, ModuleMap, hom_module

    mods = [CanonicalModule(modulus, c) for c in reference_divisor_chains(modulus, depth)]
    for b in mods:
        for a in mods:
            h = hom_module(b, a)
            yield ModuleMap.zero(b, a)
            for i in range(h.module.ngens):
                yield h.to_map(h.module.generator(i))
            if h.module.ngens > 1:
                yield h.to_map(tuple(1 for _ in range(h.module.ngens)))


def reference_fp_catalog(modulus, depth):
    """The catalog in the order and with the members of
    ``zpure.purity.fp_catalog``."""
    from zpure.finmod import CanonicalModule
    from zpure.funcat import fp_value

    test = [CanonicalModule.cyclic(modulus, d) for d in reference_divisors(modulus)]
    catalog = []
    seen = set()
    for u in reference_fp_candidates(modulus, depth):
        sig = tuple(fp_value(u, c).module.invariants for c in test)
        if sig not in seen:
            seen.add(sig)
            catalog.append(u)
    return tuple(catalog)


# ---------------------------------------------------------------------------
# The fp and pp checkers as first written: every induced sequence is built
# from canonical quotient modules and validated module maps (as
# ``zpure.funcat.fp_induced`` builds them, and ``zpure.ppdef.induced_pp_map``)
# and judged by ``zpure.finmod.is_exact``.  They are the references for the
# checkers of ``zpure.purity``, which read exactness off subgroup orders.


@lru_cache(maxsize=32768)
def cached_fp_value(u, c):
    """``zpure.funcat.fp_value`` (covariant), kept per (u, c).  The library
    keeps no cache on it, and the fp references ask for the same quotients
    across many sequences."""
    from zpure.funcat import fp_value

    return fp_value(u, c)


def reference_fp_functor_exact(u, seq):
    """Exactness of F_u(L) -> F_u(M) -> F_u(N) through canonical maps, each
    built as ``zpure.funcat.fp_induced`` builds it."""
    from zpure.finmod import is_exact
    from zpure.funcat import _fp_action

    def induced(f):
        return _fp_action(cached_fp_value(u, f.domain), cached_fp_value(u, f.codomain), f,
                          "covariant")

    return is_exact(induced(seq.f), induced(seq.g))


def reference_pp_pair_exact(phi, psi, seq):
    """Exactness of the sort-group sequence of phi/psi through canonical maps."""
    from zpure.finmod import is_exact
    from zpure.ppdef import PpPair, induced_pp_map, sort_group_from_subgroups

    pair = PpPair.of(phi, psi)
    mods = (seq.left, seq.middle, seq.right)
    phi_subs = [cached_eval_pp(phi, m) for m in mods]
    psi_subs = [cached_eval_pp(pair.psi, m) for m in mods]
    if all(q.cardinality == p.cardinality for p, q in zip(phi_subs, psi_subs)):
        return True  # all three sort groups vanish; trivially exact
    sorts = [sort_group_from_subgroups(p, q, m) for p, q, m in zip(phi_subs, psi_subs, mods)]
    f_ind = induced_pp_map(pair, seq.f, sorts[0], sorts[1])
    g_ind = induced_pp_map(pair, seq.g, sorts[1], sorts[2])
    return is_exact(f_ind, g_ind)


def reference_eval_pp_gens(formula, module):
    """Generators of phi(M), one ``kernel_mod`` call per invariant factor
    of M, as ``zpure.ppdef.eval_pp`` first produced them."""
    from zpure.zmodlin import kernel_mod

    k, s = formula.free_count, module.ngens
    combined = formula.a.hstack(formula.b)
    gens = []
    for t, d in enumerate(module.invariants):
        for sol in kernel_mod(combined, [d] * formula.rows):
            vec = [0] * (k * s)
            for j in range(k):
                vec[j * s + t] = sol[j] % d
            if any(vec):
                gens.append(tuple(vec))
    return tuple(gens)


def reference_check_fp_functors(seq, bounds):
    """``zpure.purity.check_fp_functors`` through canonical induced maps."""
    from zpure.purity import fp_catalog

    for u in fp_catalog(seq.modulus, bounds.fp_depth):
        if not reference_fp_functor_exact(u, seq):
            return False, {
                "kind": "fp_functor",
                "map_domain": list(u.domain.invariants),
                "map_codomain": list(u.codomain.invariants),
                "matrix": u.matrix.tolists(),
            }
    return True, None


def reference_check_pp_pairs(seq, bounds):
    """``zpure.purity.check_pp_pairs`` through canonical induced maps."""
    from zpure.ppdef import enumerate_pp, format_pp

    catalog = enumerate_pp(seq.modulus, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    for phi in catalog:
        for psi in catalog:
            if not reference_pp_pair_exact(phi, psi, seq):
                return False, {"kind": "pp_pair",
                               "phi": format_pp(phi), "psi": format_pp(psi)}
    return True, None


def reference_torsion_subgroup(module, d):
    """The d-torsion of module as the kernel of multiplication by d."""
    from zpure.finmod import ModuleMap
    from zpure.zmodlin import IntMatrix

    return ModuleMap(module, module, IntMatrix.diagonal([d] * module.ngens)).kernel()


def reference_check_hom_lifting(seq):
    """``zpure.purity.check_hom_lifting`` as first written: the witness is
    the first d-torsion element of the right term, in ``elements()`` order,
    outside the image of the middle's d-torsion."""
    from zpure.finmod import Subgroup, divisors

    for d in divisors(seq.modulus)[1:]:
        tor_m = reference_torsion_subgroup(seq.middle, d)
        tor_n = reference_torsion_subgroup(seq.right, d)
        pushed = Subgroup(seq.right.invariants, seq.modulus,
                          tuple(seq.g.apply(x) for x in tor_m.gens))
        for y in map(tor_n.element, tor_n.module.elements()):
            if any(y) and not pushed.contains(y):
                return False, {"kind": "unliftable_hom", "cyclic": d, "target": list(y)}
    return True, None


def reference_check_tensor(seq):
    """``zpure.purity.check_tensor`` as it tried every divisor d >= 2."""
    from zpure.finmod import CanonicalModule, tensor_map

    for d in reference_divisors(seq.modulus)[1:]:
        if not tensor_map(CanonicalModule.cyclic(seq.modulus, d), seq.f).is_injective():
            return False, {"kind": "tensor", "cyclic": d}
    return True, None


def reference_splitting_section(seq):
    """``zpure.finmod.splitting_section`` as one joint system: n_N^2 rows
    (k, j) over n_M*n_N unknowns c_(i,j), the cyclic hom coordinates of the
    section, entry a_ij = c_ij*(m_i/gcd(m_i, n_j)).  The section's matrix,
    or None when the system has no solution."""
    from zpure.finmod import ModuleMap
    from zpure.zmodlin import IntMatrix, hermite_solve, hermite_system

    m_inv = seq.middle.invariants
    n_inv = seq.right.invariants
    n_m, n_n = len(m_inv), len(n_inv)
    if n_n == 0:
        return ModuleMap.zero(seq.right, seq.middle)
    unknowns = [(i, j) for i in range(n_m) for j in range(n_n)]
    steps = {(i, j): m_inv[i] // gcd(m_inv[i], n_inv[j]) for i, j in unknowns}
    rows = []
    rhs = []
    moduli = []
    G = seq.g.matrix
    for k in range(n_n):
        for j in range(n_n):
            rows.append([G.entries[k][i] * steps[(i, jj)] if jj == j else 0
                         for (i, jj) in unknowns])
            rhs.append(1 if k == j else 0)
            moduli.append(n_inv[k])
    c = hermite_solve(hermite_system(rows, moduli, len(unknowns)), rhs, moduli)
    if c is None:
        return None
    mat_rows = [[0] * n_n for _ in range(n_m)]
    for idx, (i, j) in enumerate(unknowns):
        mat_rows[i][j] = c[idx] * steps[(i, j)]
    return ModuleMap(seq.right, seq.middle, IntMatrix.from_rows(mat_rows, cols=n_n))


def reference_divisors(n):
    """Divisors of n in ascending order, by testing every candidate."""
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_factor_count(n):
    """Omega(n), by repeated division by the least divisor >= 2."""
    count = 0
    while n > 1:
        n //= next(d for d in range(2, n + 1) if n % d == 0)
        count += 1
    return count


def reference_divisor_chains(n, max_gens):
    """Every invariant-factor chain over Z/n with at most ``max_gens`` terms."""
    divs = [d for d in reference_divisors(n) if d >= 2]
    chains = [()]
    frontier = [()]
    for _ in range(max_gens):
        frontier = [c + (e,) for c in frontier for e in divs if not c or e % c[-1] == 0]
        chains.extend(frontier)
    return chains


# ---------------------------------------------------------------------------
# The functor-category checks as first written: the composition coefficient
# from its formula, its associativity over every quadruple of objects, the
# functor laws checked by building and comparing validated module maps on
# every triple of objects, and the functors built with an action for every
# ordered pair of objects.  They are the references for the prime steps of
# ``zpure.funcat.IndexCategoryD`` and for ``zpure.funcat.FunctorOnD``, which
# stores and validates the actions of the prime steps only.


def reference_comp_coeff(d, e, f):
    """Coefficient c with g_{e,f} o g_{d,e} == c * g_{d,f} (c mod gcd(d, f)),
    where g_{d,e}: Z/d -> Z/e sends 1 to e / gcd(d, e): the image of 1 under
    the composite of the two maps, read in units of the generator's image."""
    if f == 1:
        return 0
    composite = ((e // gcd(d, e)) * (f // gcd(e, f))) % f
    gdf = gcd(d, f)
    gen = f // gdf
    assert composite % gen == 0
    return (composite // gen) % gdf


def reference_check_associativity(objects):
    """Assert that the coefficients of the objects' canonical generators have
    g_{d,d} as identity and are associative on every quadruple (d, e, f, h):
    the table ``zpure.funcat.build_index_category`` once built and checked."""
    coeff = {(d, e, f): reference_comp_coeff(d, e, f)
             for d in objects for e in objects for f in objects}
    for d in objects:
        assert d == 1 or coeff[d, d, d] == 1, d
    for d in objects:
        for e in objects:
            for f in objects:
                c_def = coeff[d, e, f]
                for h in objects:
                    lhs = c_def * coeff[d, f, h]
                    rhs = coeff[e, f, h] * coeff[d, e, h]
                    assert (lhs - rhs) % gcd(d, h) == 0, (d, e, f, h)


def reference_validate_functor(cat, variance, values, actions):
    """Raise ``InputError`` with the validator's message when the data break
    a functor law; ``actions`` maps every ordered pair of objects (d, e) to
    F(g_{d,e}).  The rules run in the order of the first validator:
    identities, then types and hom-group torsion pair by pair, then the
    composition table on every triple."""
    from zpure.errors import InputError
    from zpure.finmod import ModuleMap

    objs = cat.objects
    covariant = variance == "covariant"

    def value(d):
        return values[objs.index(d)]

    for d in objs:
        if actions[d, d] != ModuleMap.identity(value(d)):
            raise InputError("functor does not send identity generators to identities")
    for d in objs:
        for e in objs:
            act = actions[d, e]
            if covariant:
                ok = act.domain == value(d) and act.codomain == value(e)
            else:
                ok = act.domain == value(e) and act.codomain == value(d)
            if not ok:
                raise InputError("action has the wrong type for the variance")
            if not act.scale(gcd(d, e)).is_zero_map():
                raise InputError("action violates hom-group torsion")
    for d in objs:
        for e in objs:
            for f in objs:
                c = reference_comp_coeff(d, e, f)
                if covariant:
                    lhs = actions[e, f] @ actions[d, e]
                else:
                    lhs = actions[d, e] @ actions[e, f]
                if lhs != actions[d, f].scale(c):
                    raise InputError("functor violates the composition table")


def reference_action_table(cat, action_of):
    """{(d, e): action_of(d, e)} for every ordered pair of objects, each
    action built by its own construction, identities included."""
    return {(d, e): action_of(d, e) for d in cat.objects for e in cat.objects}


def reference_fp_actions(u, cat, variance="covariant"):
    """Every action of the fp functor of u, each from ``_fp_action``."""
    from zpure.funcat import _fp_action, fp_value

    vals = {d: fp_value(u, cat.cyclic(d), variance) for d in cat.objects}

    def action_of(d, e):
        src, dst = (d, e) if variance == "covariant" else (e, d)
        return _fp_action(vals[src], vals[dst], cat.gen_map(d, e), variance)

    return reference_action_table(cat, action_of)


def reference_restrict_actions(cat, c):
    """Every action of Hom(-, c) on D, each from ``precompose``."""
    from zpure.finmod import precompose

    return reference_action_table(cat, lambda d, e: precompose(cat.gen_map(d, e), c))


def reference_tensor_actions(cat, y):
    """Every action of y (x) - on D, each from ``tensor_pair_map``."""
    from zpure.finmod import ModuleMap, tensor_pair_map

    id_y = ModuleMap.identity(y)
    return reference_action_table(cat, lambda d, e: tensor_pair_map(id_y, cat.gen_map(d, e)))


def reference_dual_actions(actions):
    """Every action of the dual of a functor, each from ``dual_map``."""
    from zpure.finmod import dual_map

    return {pair: dual_map(act) for pair, act in actions.items()}


def reference_compose_steps(cat, variance, values, steps):
    """The action table that step actions generate: the identity at (d, d),
    and elsewhere the composite of the steps' actions along the path down
    from d to gcd(d, e) and up to e, the smallest prime first each way."""
    from zpure.finmod import ModuleMap

    objs = cat.objects
    step = {(objs[i], objs[j]): act for (i, j), act in zip(cat.prime_steps, steps)}
    table = {}
    for d in objs:
        for e in objs:
            act = ModuleMap.identity(values[objs.index(d)])
            g, cur = gcd(d, e), d
            while cur != e:
                down = e % cur  # cur lies above g, on the way down
                gap = cur // g if down else e // cur
                p = min(q for q in range(2, gap + 1) if gap % q == 0)
                nxt = cur // p if down else cur * p
                act = step[cur, nxt] @ act if variance == "covariant" else act @ step[cur, nxt]
                cur = nxt
            table[d, e] = act
    return table


# ---------------------------------------------------------------------------
# The Smith reduction, congruence solver and row echelon as first written.
# ``reference_snf_core`` is the integer Smith form, tracking U, U^-1 and V
# behind flags; it is the reference for ``zpure.zmodlin.smith_reduce``, which
# reduces over Z/N only, and for ``reference_kernel_mod``, the reference
# lattice of ``zpure.zmodlin.kernel_mod``.  The solver Smith-reduces the
# augmented system [A | diag(moduli)] once with both transforms, and the
# Smith input of ``kernel_mod`` was once shrunk by a sort-based row echelon.
# They are the references for ``zpure.zmodlin.hermite_solve`` and for
# ``zpure.zmodlin.column_echelon``.  ``reference_normalize_presentation`` is
# the presentation constructor as it was when it took one relation matrix;
# it is the reference for ``zpure.finmod.normalize_presentation``.


def reference_snf_core(S: list[list[int]], m: int, n: int,
                       want_u: bool, want_uinv: bool, want_v: bool):
    """In-place Smith reduction with optional transform tracking.

    Classical Euclidean pivoting: repeatedly move a minimal nonzero entry to
    the pivot position, clear its row and column, and absorb any entry of the
    remaining block that the pivot does not divide.  This makes the diagonal
    a divisibility chain without a separate fix-up pass.
    """
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_u else None
    Uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_uinv else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_v else None

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for r in range(m):  # inverse op acts on columns
                Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_add(i, j, c):
        # row_i += c * row_j ; Uinv column j -= c * column i
        Si, Sj = S[i], S[j]
        for k in range(n):
            Si[k] += c * Sj[k]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for k in range(m):
                Ui[k] += c * Uj[k]
        if Uinv is not None:
            for r in range(m):
                Uinv[r][j] -= c * Uinv[r][i]

    def row_negate(i):
        S[i] = [-v for v in S[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]
        if Uinv is not None:
            for r in range(m):
                Uinv[r][i] = -Uinv[r][i]

    def col_swap(i, j):
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        if V is not None:
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in range(m):
            S[r][i] += c * S[r][j]
        if V is not None:
            for r in range(n):
                V[r][i] += c * V[r][j]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            Si = S[i]
            for j in range(t, n):
                v = Si[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])

        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if S[i][t]:
                        q = S[i][t] // S[t][t]
                        row_add(i, t, -q)
                        if S[i][t]:
                            row_swap(t, i)
                            dirty = True
                for j in range(t + 1, n):
                    if S[t][j]:
                        q = S[t][j] // S[t][t]
                        col_add(j, t, -q)
                        if S[t][j]:
                            col_swap(t, j)
                            dirty = True
            d = S[t][t]
            bad = None
            for i in range(t + 1, m):
                Si = S[i]
                for j in range(t + 1, n):
                    if Si[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if S[t][t] < 0:
            row_negate(t)
        t += 1

    return U, Uinv, V


def reference_kernel_mod(A, target_moduli):
    """``zpure.zmodlin.kernel_mod`` as it was before it read the Hermite kernel:
    the V columns of an integer Smith reduction of the echelon rows of
    [A | diag(target_moduli)], tracked by ``reference_snf_core``."""
    from zpure.zmodlin import column_echelon

    r, k = A.rows, A.cols
    if k == 0:
        return []
    rows = [list(A.entries[i]) + [target_moduli[i] if i == j else 0 for j in range(r)]
            for i in range(r) if target_moduli[i] != 1]
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    reduced = [list(v) for v in column_echelon(rows, k + r)]
    m = len(reduced)
    width = k + r
    _, _, V = reference_snf_core(reduced, m, width, False, False, True)
    rank = sum(1 for i in range(min(m, width)) if reduced[i][i])
    gens = []
    for j in range(rank, width):
        col = tuple(V[i][j] for i in range(k))
        if any(col):
            gens.append(col)
    return gens


def reference_normalize_presentation(relations, modulus):
    """``zpure.finmod.normalize_presentation`` as it was when it took an
    integer relation matrix: the cokernel of its columns plus modulus*Z^rows.
    Quotients of prod Z/o_i were presented by appending the o_i*e_i columns."""
    from zpure.errors import InputError
    from zpure.finmod import CanonicalModule, Presentation
    from zpure.zmodlin import IntMatrix, hermite_key, snf_left_transforms

    if modulus < 1:
        raise InputError("modulus must be >= 1")
    g = relations.rows
    if g == 0:
        return Presentation(CanonicalModule.zero(modulus),
                            IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
    key = hermite_key(relations.columns(), [modulus] * g)
    U, Uinv, diag = snf_left_transforms(list(zip(*key)), g, g, modulus)
    keep = [i for i in range(g) if diag[i] > 1]
    module = CanonicalModule(modulus, tuple(diag[i] for i in keep))
    project = IntMatrix(len(keep), g, tuple(tuple(U[i]) for i in keep))
    lift = IntMatrix(g, len(keep), tuple(tuple(Uinv[r][i] for i in keep) for r in range(g)))
    return Presentation(module, project, lift)


def reference_quotient_presentation(columns, orders, modulus):
    """The reference route for prod Z/o_i modulo ``columns``: the columns and
    the o_i*e_i as one integer relation matrix."""
    from zpure.zmodlin import IntMatrix

    g = len(orders)
    diagonal = [tuple(o if i == j else 0 for i in range(g)) for j, o in enumerate(orders)]
    return reference_normalize_presentation(
        IntMatrix.from_columns(list(columns) + diagonal, g), modulus)


class ReferenceModSolver:
    """Factored form of the system A*x == b (mod moduli) for repeated solves."""

    def __init__(self, rows, k, moduli):
        from zpure.errors import InputError

        r = len(moduli)
        for mm in moduli:
            if mm < 1:
                raise InputError("moduli must be >= 1")
        S = [list(rows[i]) + [moduli[i] if i == j else 0 for j in range(r)]
             for i in range(r)]
        U, _, V = reference_snf_core(S, r, k + r, True, False, True)
        self.k = k
        self.r = r
        self.U = U
        self.V = V
        self.diag = [S[i][i] for i in range(min(r, k + r))]
        self.rank = sum(1 for d in self.diag if d)

    def particular(self, b):
        """One solution x (length k) of A*x == b, or None."""
        k, r = self.k, self.r
        U = self.U
        w = [0] * (k + r)
        for i in range(r):
            ci = sum(U[i][j] * b[j] for j in range(r))
            s = self.diag[i] if i < len(self.diag) else 0
            if s == 0:
                if ci:
                    return None
            else:
                if ci % s:
                    return None
                w[i] = ci // s
        V = self.V
        return [sum(V[i][j] * w[j] for j in range(k + r) if w[j]) for i in range(k)]

    def kernel_gens(self):
        """Generators of the homogeneous solution lattice in Z^k."""
        out = []
        for j in range(self.rank, self.k + self.r):
            col = tuple(self.V[i][j] for i in range(self.k))
            if any(col):
                out.append(col)
        return out


def reference_row_echelon(rows, width):
    """Integer row reduction without transforms; kernel-preserving."""
    out = []
    work = [r for r in rows if any(r)]
    col = 0
    while work and col < width:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            r0 = nz[0]
            new_nz = [r0]
            for r in nz[1:]:
                q = r[col] // r0[col]
                for c in range(col, width):
                    r[c] -= q * r0[c]
                if r[col]:
                    new_nz.append(r)
                elif any(r):
                    rest.append(r)
            nz = new_nz
        out.append(nz[0])
        work = rest
        col += 1
    return out


# The functor-category constructions as first written: every hom element is
# realized as a validated ``ModuleMap``, composed, and read back through
# ``HomModule.from_map``; every pure tensor is projected from its full table
# of raw coordinates (``reference_pure``).  They are the references for
# ``zpure.funcat`` and the tensor code of ``zpure.finmod``, which compute the
# same matrices on integer tables.


def _raw_index(t, p, j):
    """The raw coordinate of the p-th left and j-th right generator of t."""
    return p * t.right.ngens + j


def reference_pure(t, y, m):
    """The pure tensor y (x) m in the tensor module t: every raw coordinate
    set to y_p m_j mod its order, then projected."""
    y = t.left.reduce(y)
    m = t.right.reduce(m)
    coords = [0] * len(t.orders)
    for p in range(t.left.ngens):
        for j in range(t.right.ngens):
            idx = _raw_index(t, p, j)
            coords[idx] = (y[p] * m[j]) % t.orders[idx]
    return t.module.reduce(t.pres.project.apply(coords))


def reference_tensor_pair_map(fl, fr):
    """fl (x) fr, its raw coordinate matrix filled entry by entry."""
    from zpure.finmod import ModuleMap, tensor_modules
    from zpure.zmodlin import IntMatrix

    src = tensor_modules(fl.domain, fr.domain)
    dst = tensor_modules(fl.codomain, fr.codomain)
    cols_in = len(src.orders)
    coord = [[0] * cols_in for _ in range(len(dst.orders))]
    for p in range(fl.domain.ngens):
        for j in range(fr.domain.ngens):
            cin = _raw_index(src, p, j)
            for i in range(fl.codomain.ngens):
                a = fl.matrix.entries[i][p]
                if not a:
                    continue
                for l in range(fr.codomain.ngens):
                    coord[_raw_index(dst, i, l)][cin] = a * fr.matrix.entries[l][j]
    mat = IntMatrix.from_rows(coord, cols=cols_in)
    return ModuleMap(src.module, dst.module, dst.pres.project @ mat @ src.pres.lift)


def reference_coend_evaluation_map(F, a):
    """coend(D(-, Z/a), F) -> F(a), each tensor generator read from a lift
    column of the tensor presentation by raw index."""
    from zpure.finmod import ModuleMap

    coend, W = reference_coend_evaluation_ambient(F, a)
    return coend, ModuleMap(coend.group, F.value(a), W @ coend.pres.lift)


def reference_coend_evaluation_ambient(F, a):
    """(coend, W): the evaluation on the coend's ambient sum of tensor
    products, before it is pushed to the quotient."""
    from zpure.finmod import hom_module, tensor_modules
    from zpure.funcat import _hom_scalar, coend_tensor, restrict_module
    from zpure.zmodlin import IntMatrix

    cat = F.category
    G = restrict_module(cat, cat.cyclic(a))
    coend = coend_tensor(G, F)
    fa = F.value(a)
    total = len(coend.orders)
    W = [[0] * total for _ in range(fa.ngens)]
    for i_d, d in enumerate(cat.objects):
        gd, fd = G.value(d), F.value(d)
        if gd.is_zero() or fd.is_zero():
            continue
        hom = hom_module(cat.cyclic(d), cat.cyclic(a))
        t = tensor_modules(gd, fd)
        act = F.action(d, a)
        gen_img = cat.gen_image(d, a)
        scalars = [_hom_scalar(hom, gen_img, gd.generator(p)) for p in range(gd.ngens)]
        for col_i in range(t.module.ngens):
            coords = t.pres.lift.col(col_i)
            image = [0] * fa.ngens
            for p in range(gd.ngens):
                if not scalars[p]:
                    continue
                for q in range(fd.ngens):
                    cpq = coords[_raw_index(t, p, q)]
                    if not cpq:
                        continue
                    w = cpq * scalars[p]
                    for r in range(fa.ngens):
                        image[r] += w * act.matrix.entries[r][q]
            for r in range(fa.ngens):
                W[r][coend.offsets[i_d] + col_i] += image[r]
    return coend, IntMatrix.from_rows(W, cols=total)


def reference_gen_map(cat, d, e):
    """g_{d,e}: Z/d -> Z/e, sending 1 to e / gcd(d, e), built afresh."""
    from zpure.finmod import ModuleMap

    dom, cod = cat.cyclic(d), cat.cyclic(e)
    if dom.is_zero() or cod.is_zero():
        return ModuleMap.zero(dom, cod)
    return ModuleMap.from_rows(dom, cod, [[e // gcd(d, e)]])


def reference_postcompose(v, source):
    """Hom(source, dom v) -> Hom(source, cod v), h -> v o h."""
    from zpure.finmod import ModuleMap, hom_module
    from zpure.zmodlin import IntMatrix

    hsrc = hom_module(source, v.domain)
    hdst = hom_module(source, v.codomain)
    cols = [hdst.from_map(v @ hsrc.to_map(hsrc.module.generator(i)))
            for i in range(hsrc.module.ngens)]
    return ModuleMap(hsrc.module, hdst.module, IntMatrix.from_columns(cols, hdst.module.ngens))


def reference_precompose(u, target):
    """Hom(cod u, target) -> Hom(dom u, target), h -> h o u."""
    from zpure.finmod import ModuleMap, hom_module
    from zpure.zmodlin import IntMatrix

    hsrc = hom_module(u.codomain, target)
    hdst = hom_module(u.domain, target)
    cols = [hdst.from_map(hsrc.to_map(hsrc.module.generator(i)) @ u)
            for i in range(hsrc.module.ngens)]
    return ModuleMap(hsrc.module, hdst.module, IntMatrix.from_columns(cols, hdst.module.ngens))


def reference_fp_value(u, c, variance="covariant"):
    """``zpure.funcat.fp_value`` through the reference hom pushes, uncached."""
    from zpure.finmod import hom_module, quotient_by_subgroup
    from zpure.funcat import FpValue

    if variance == "covariant":
        induced, hom = reference_precompose(u, c), hom_module(u.domain, c)
    else:
        induced, hom = reference_postcompose(u, c), hom_module(c, u.codomain)
    module, proj, lift = quotient_by_subgroup(induced.codomain, induced.image())
    return FpValue(module, proj, lift, hom)


def reference_fp_induced(u, f, variance="covariant"):
    """F_u(dom f) -> F_u(cod f) (reversed when contravariant), element by element."""
    from zpure.finmod import ModuleMap
    from zpure.zmodlin import IntMatrix

    if variance == "covariant":
        src, dst = reference_fp_value(u, f.domain, variance), reference_fp_value(u, f.codomain, variance)
    else:
        src, dst = reference_fp_value(u, f.codomain, variance), reference_fp_value(u, f.domain, variance)
    cols = []
    for i in range(src.module.ngens):
        rep = src.hom.to_map(src.lift.col(i))
        moved = (f @ rep) if variance == "covariant" else (rep @ f)
        cols.append(dst.proj.apply(dst.hom.from_map(moved)))
    return ModuleMap(src.module, dst.module, IntMatrix.from_columns(cols, dst.module.ngens))


def reference_fp_functor_from_map(u, cat, variance="covariant"):
    from zpure.funcat import functor_from_values

    return functor_from_values(
        cat, variance,
        lambda d: reference_fp_value(u, cat.cyclic(d), variance).module,
        lambda d, e: reference_fp_induced(u, reference_gen_map(cat, d, e), variance))


def reference_representable_cov(cat, a):
    """The covariant representable D(a, -): d -> Hom(Z/a, Z/d), its actions
    the composition coefficients.  The package builds it as the fp functor
    of the zero map Z/a -> 0."""
    from zpure.finmod import CanonicalModule, ModuleMap
    from zpure.funcat import functor_from_values

    cat.index_of(a)

    def value_of(d):
        return CanonicalModule.cyclic(cat.modulus, gcd(a, d))

    def action_of(d, e):
        dom, cod = value_of(d), value_of(e)
        if dom.is_zero() or cod.is_zero():
            return ModuleMap.zero(dom, cod)
        return ModuleMap.from_rows(dom, cod, [[reference_comp_coeff(a, d, e)]])

    return functor_from_values(cat, "covariant", value_of, action_of)


def reference_restrict_module(cat, c):
    from zpure.finmod import hom_module
    from zpure.funcat import functor_from_values

    return functor_from_values(
        cat, "contravariant",
        lambda d: hom_module(cat.cyclic(d), c).module,
        lambda d, e: reference_precompose(reference_gen_map(cat, d, e), c))


def reference_tensor_functor(cat, y):
    from zpure.finmod import ModuleMap, tensor_modules
    from zpure.funcat import functor_from_values

    return functor_from_values(
        cat, "covariant",
        lambda d: tensor_modules(y, cat.cyclic(d)).module,
        lambda d, e: reference_tensor_pair_map(ModuleMap.identity(y),
                                               reference_gen_map(cat, d, e)))


# The character duals as first written: a character of M = (Z/d_j)_j is its
# numerators chi_j in Z/N, one per generator, paired with m by
# sum_j chi_j * m_j * (N / d_j) mod N, so M* has M's invariants.  They are the
# references for ``zpure.finmod``'s duals, which are hom groups Hom(M, Z/N).


def reference_dual_module(m):
    from zpure.finmod import CanonicalModule

    return CanonicalModule(m.modulus, m.invariants)


def reference_pair(m, chi, x):
    """chi(x) in Z/N for a character chi of m and an element x of m."""
    N = m.modulus
    total = 0
    for c, v, d in zip(chi, x, m.invariants):
        total += c * v * (N // d)
    return total % N


def reference_dual_map(f):
    """Contravariant dual: precomposition with f on characters."""
    from zpure.errors import InternalCheckError
    from zpure.finmod import ModuleMap
    from zpure.zmodlin import IntMatrix

    dom = reference_dual_module(f.codomain)
    cod = reference_dual_module(f.domain)
    d_inv = f.domain.invariants
    e_inv = f.codomain.invariants
    rows = []
    for j in range(f.domain.ngens):
        row = []
        for i in range(f.codomain.ngens):
            num = f.matrix.entries[i][j] * d_inv[j]
            if num % e_inv[i]:
                raise InternalCheckError("dual entry not integral; map was ill-defined")
            row.append((num // e_inv[i]) % d_inv[j])
        rows.append(tuple(row))
    return ModuleMap(dom, cod, IntMatrix(f.domain.ngens, f.codomain.ngens, tuple(rows)))


def reference_evaluation_map(module):
    """The canonical map M -> M** computed through the pairing."""
    from zpure.errors import InternalCheckError
    from zpure.finmod import ModuleMap
    from zpure.zmodlin import IntMatrix

    d1 = reference_dual_module(module)
    d2 = reference_dual_module(d1)
    N = module.modulus
    cols = []
    for j in range(module.ngens):
        gen = module.generator(j)
        coords = []
        for p in range(d1.ngens):
            w = reference_pair(module, d1.generator(p), gen)
            step = N // d1.invariants[p]
            if w % step:
                raise InternalCheckError("evaluation character not in torsion carrier")
            coords.append((w // step) % d1.invariants[p])
        cols.append(coords)
    return ModuleMap(module, d2, IntMatrix.from_columns(cols, d2.ngens))


def reference_dual_functor(F):
    from zpure.funcat import functor_from_values

    return functor_from_values(
        F.category, "contravariant" if F.is_covariant() else "covariant",
        lambda d: reference_dual_module(F.value(d)),
        lambda d, e: reference_dual_map(F.action(d, e)))


def reference_hom_tensor_duality_map(G, F):
    """The canonical map (G (x) F)* -> Nat(F, G*), characters as numerators."""
    from zpure.errors import InternalCheckError
    from zpure.finmod import ModuleMap, tensor_modules
    from zpure.funcat import coend_tensor, nat_transformations
    from zpure.zmodlin import IntMatrix

    cat = G.category
    coend = coend_tensor(G, F)
    c_star = reference_dual_module(coend.group)
    g_star = reference_dual_functor(G)
    nat = nat_transformations(F, g_star)
    N = cat.modulus
    # images[i_d][p][q] = inj_d(pure(p-th generator of G(d), q-th of F(d)))
    images = []
    for i_d, d in enumerate(cat.objects):
        gd, fd = G.value(d), F.value(d)
        tmod, inj = tensor_modules(gd, fd), coend.injections[i_d]
        images.append([[inj.apply(reference_pure(tmod, gd.generator(p), fd.generator(q)))
                        for q in range(fd.ngens)] for p in range(gd.ngens)])
    cols = []
    for t in range(c_star.ngens):
        scale = N // coend.group.invariants[t]
        fams = []
        for i_d, d in enumerate(cat.objects):
            fd, dual_gd = F.value(d), g_star.value(d)
            rows = []
            for zrow, inv in zip(images[i_d], dual_gd.invariants):
                step = N // inv
                row = []
                for z in zrow:
                    w = (z[t] * scale) % N
                    if w % step:
                        raise InternalCheckError("duality character escapes the torsion carrier")
                    row.append((w // step) % inv)
                rows.append(tuple(row))
            fams.append(ModuleMap(fd, dual_gd, IntMatrix(dual_gd.ngens, fd.ngens, tuple(rows))))
        cols.append(nat.from_family(fams))
    mat = IntMatrix.from_columns(cols, nat.module.ngens)
    return ModuleMap(c_star, nat.module, mat), nat


def reference_coend_tensor(G, F):
    """Coend of G and F with every relation built from ``reference_pure``,
    one per generator pair of every ordered object pair, and its injections
    built eagerly: (CoendResult, injections)."""
    from zpure.finmod import ModuleMap, normalize_presentation, tensor_modules
    from zpure.funcat import CoendResult
    from zpure.zmodlin import IntMatrix

    cat = G.category
    objs = cat.objects
    n = len(objs)
    tensors = [tensor_modules(G.values[i], F.values[i]) for i in range(n)]
    offsets, orders = [], []
    for t in tensors:
        offsets.append(len(orders))
        orders.extend(t.module.invariants)
    total = len(orders)
    rel_cols = []
    for i_d in range(n):
        for i_e in range(n):
            if i_d == i_e:
                continue
            ge, fd = G.values[i_e], F.values[i_d]
            if ge.is_zero() or fd.is_zero():
                continue
            g_act, f_act = G.action(objs[i_d], objs[i_e]), F.action(objs[i_d], objs[i_e])
            for x in range(ge.ngens):
                gx = g_act.apply(ge.generator(x))
                for y in range(fd.ngens):
                    fy = f_act.apply(fd.generator(y))
                    left = reference_pure(tensors[i_d], gx, fd.generator(y))
                    right = reference_pure(tensors[i_e], ge.generator(x), fy)
                    col = [0] * total
                    for i, v in enumerate(left):
                        col[offsets[i_d] + i] += v
                    for i, v in enumerate(right):
                        col[offsets[i_e] + i] -= v
                    if any(col):
                        rel_cols.append(col)
    pres = normalize_presentation(rel_cols, orders, cat.modulus)
    injections = []
    for i_d, t in enumerate(tensors):
        k = t.module.ngens
        mat = IntMatrix(pres.module.ngens, k,
                        tuple(tuple(pres.project.entries[r][offsets[i_d] + j] for j in range(k))
                              for r in range(pres.module.ngens)))
        injections.append(ModuleMap(t.module, pres.module, mat))
    coend = CoendResult(pres.module, tuple(offsets), tuple(orders), pres)
    return coend, tuple(injections)


def reference_nat_transformations(F, H):
    """``zpure.funcat.nat_transformations`` with every naturality term built
    as a composite of validated ``ModuleMap``s, one block of equations per
    ordered pair of distinct objects."""
    from zpure.finmod import Subgroup, hom_module
    from zpure.funcat import NatModule
    from zpure.zmodlin import hermite_kernel

    cat = F.category
    objs = cat.objects
    n = len(objs)
    homs = tuple(hom_module(F.values[i], H.values[i]) for i in range(n))
    offsets, orders = [], []
    for h in homs:
        offsets.append(len(orders))
        orders.extend(h.module.invariants)
    total = len(orders)
    gen_maps = [[h.to_map(h.module.generator(j)) for j in range(h.module.ngens)]
                for h in homs]
    rows, moduli = [], []
    cov = F.is_covariant()
    for i_d in range(n):
        for i_e in range(n):
            if i_d == i_e:
                continue
            f_act, h_act = F.action(objs[i_d], objs[i_e]), H.action(objs[i_d], objs[i_e])
            if cov:
                dom_val, cod_val = F.values[i_d], H.values[i_e]
                i_first, i_second = i_d, i_e
            else:
                dom_val, cod_val = F.values[i_e], H.values[i_d]
                i_first, i_second = i_e, i_d
            if dom_val.is_zero() or cod_val.is_zero():
                continue
            contrib = {}
            for j, gm in enumerate(gen_maps[i_first]):
                contrib[offsets[i_first] + j] = h_act @ gm
            for j, gm in enumerate(gen_maps[i_second]):
                contrib[offsets[i_second] + j] = (gm @ f_act).scale(-1)
            for r in range(cod_val.ngens):
                for c in range(dom_val.ngens):
                    row = [0] * total
                    for key, mp in contrib.items():
                        row[key] = mp.matrix.entries[r][c]
                    if any(row):
                        rows.append(row)
                        moduli.append(cod_val.invariants[r])
    gens = hermite_kernel(rows, moduli, total)
    sub = Subgroup(tuple(orders), cat.modulus, tuple(gens))
    return NatModule(F, H, sub.module, sub, homs, tuple(offsets))


def reference_harness(modulus, trials, seed, bounds=None, max_gens=3):
    """``equivalence_harness`` as one loop in this process: one
    ``purity_report`` per trial, with no memo and no fork."""
    from zpure.finmod import random_ses
    from zpure.purity import CHECKER_NAMES, DEFAULT_BOUNDS, HarnessSummary, purity_report

    bounds = bounds or DEFAULT_BOUNDS
    pure, disagree = 0, []
    false_counts = {name: 0 for name in CHECKER_NAMES}
    for i in range(trials):
        seq = random_ses(modulus, seed=f"{seed}:{i}", max_gens=max_gens)
        report = purity_report(seq, bounds)
        if not report.consensus:
            disagree.append(i)
        if report.verdicts["split"]:
            pure += 1
        for name in CHECKER_NAMES:
            if not report.verdicts[name]:
                false_counts[name] += 1
    return HarnessSummary(modulus, trials, seed, bounds, pure, len(disagree),
                          tuple(disagree), false_counts)
