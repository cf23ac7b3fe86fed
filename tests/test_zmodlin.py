import random
from itertools import product
from math import gcd, lcm, prod

import pytest

from zpure.zmodlin import (
    IntMatrix,
    column_echelon,
    hermite_extend,
    hermite_kernel,
    hermite_key,
    hermite_reduce,
    hermite_solve,
    hermite_system,
    kernel_mod,
    key_order,
    smith_reduce,
    snf_left_transforms,
    solve_linear_mod,
    solve_mod_many,
)
from zpure import zmodlin
from zpure.errors import InputError

from helpers import smith_normal_form, smith_riders

from oracles import (
    ReferenceModSolver,
    det_fraction,
    divisor_chains,
    elementary_invariant_factors,
    enumerate_solutions,
    reference_hermite_kernel,
    reference_hermite_key,
    reference_kernel_mod,
    reference_row_echelon,
    reference_snf_core,
    span_mod,
)


def check_snf(A):
    res = smith_normal_form(A)
    assert (res.U @ A @ res.V).entries == res.S.entries
    assert (res.U @ res.u_inv).entries == IntMatrix.identity(A.rows).entries
    diag = res.diagonal()
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0 or diag[i] != 0:
            assert diag[i] >= 0
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0
    # off-diagonal entries vanish
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S.entries[i][j] == 0
    assert abs(det_fraction(res.U.tolists())) == 1
    assert abs(det_fraction(res.V.tolists())) == 1
    return res


def test_snf_worked_example():
    # invariant factors frozen from the minor-gcd oracle
    A = IntMatrix.from_rows([[2, 4], [0, 4]])
    assert elementary_invariant_factors([[2, 4], [0, 4]]) == [2, 4]
    res = check_snf(A)
    assert res.diagonal() == [2, 4]


def test_snf_identity():
    A = IntMatrix.identity(3)
    res = check_snf(A)
    assert res.diagonal() == [1, 1, 1]


def test_snf_zero():
    A = IntMatrix.from_rows([[0]])
    res = check_snf(A)
    assert res.diagonal() == [0]


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zeros(rows, cols)
        res = check_snf(A)
        assert res.S.rows == rows and res.S.cols == cols


@pytest.mark.parametrize("seed", range(30))
def test_snf_random_matches_minor_gcd_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    res = check_snf(IntMatrix.from_rows(rows, cols=n))
    expected = elementary_invariant_factors(rows)
    got = [d for d in res.diagonal() if d != 0]
    assert got == expected


def _reference_smith(rows, m, n):
    """S, U, U^-1 and V from the flag-driven reference reduction."""
    S = [list(r) for r in rows]
    U, Uinv, V = reference_snf_core(S, m, n, True, True, True)
    return S, U, Uinv, V


def test_smith_reduce_matches_reference_with_every_rider():
    rng = random.Random("smith-riders")
    shapes = [(m, n) for m in range(5) for n in range(6)]
    for trial in range(3000):
        m, n = shapes[trial % len(shapes)]
        rows = [[rng.randint(-36, 36) if rng.random() < 0.8 else 0 for _ in range(n)]
                for _ in range(m)]
        S, Uinv = smith_riders(rows, m, n)
        smith_reduce(S, m, n, Uinv)
        got = ([r[:n] for r in S[:m]], [r[n:] for r in S[:m]], Uinv, S[m:])
        assert got == _reference_smith(rows, m, n), rows
        U, U_inverse, diag = snf_left_transforms(rows, m, n)
        ref_S, ref_U, ref_Uinv, _ = _reference_smith(rows, m, n)
        assert (U, U_inverse) == (ref_U, ref_Uinv), rows
        assert diag == [ref_S[i][i] for i in range(min(m, n))]


def test_solve_linear_mod_worked_examples():
    # 2x = 2 (mod 4) -> {1, 3}
    sol = solve_linear_mod(IntMatrix.from_rows([[2]]), [2], 4)
    assert sol is not None
    part, hom = sol
    got = span_mod(hom, (4,))
    sols = {(part[0] + h[0]) % 4 for h in got}
    assert sols == {1, 3}
    # 0x = 0 (mod 4) -> everything
    sol = solve_linear_mod(IntMatrix.from_rows([[0]]), [0], 4)
    part, hom = sol
    assert {(part[0] + h[0]) % 4 for h in span_mod(hom, (4,))} == {0, 1, 2, 3}
    # 2x = 1 (mod 4) -> none
    assert solve_linear_mod(IntMatrix.from_rows([[2]]), [1], 4) is None


def test_kernel_mod_worked_examples():
    gens = kernel_mod(IntMatrix.from_rows([[2]]), [4])
    assert span_mod(gens, (4,)) == frozenset({(0,), (2,)})
    gens = kernel_mod(IntMatrix.from_rows([[0]]), [4])
    assert span_mod(gens, (4,)) == frozenset({(0,), (1,), (2,), (3,)})
    gens = kernel_mod(IntMatrix.from_rows([[1]]), [4])
    assert span_mod(gens, (4,)) == frozenset({(0,)})


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        solve_linear_mod(IntMatrix.from_rows([[1, 2]]), [1, 2], 4)
    with pytest.raises(InputError):
        kernel_mod(IntMatrix.from_rows([[1, 2]]), [4, 4])


@pytest.mark.parametrize("modulus", [2, 3, 4, 6, 16])
@pytest.mark.parametrize("seed", range(8))
def test_solve_against_enumeration(modulus, seed):
    rng = random.Random(f"{modulus}:{seed}")
    r = rng.randint(1, 3)
    k = rng.randint(1, 3)
    rows = [[rng.randrange(modulus) for _ in range(k)] for _ in range(r)]
    b = [rng.randrange(modulus) for _ in range(r)]
    A = IntMatrix.from_rows(rows, cols=k)
    expected = enumerate_solutions(rows, b, [modulus] * r, modulus)
    sol = solve_linear_mod(A, b, modulus)
    if sol is None:
        assert expected == set()
    else:
        part, hom = sol
        shifts = span_mod(hom, tuple([modulus] * k))
        got = {tuple((p + s) % modulus for p, s in zip(part, sh)) for sh in shifts}
        assert got == expected


@pytest.mark.parametrize("seed", range(10))
def test_kernel_with_mixed_moduli_against_enumeration(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 2)
    k = rng.randint(1, 3)
    moduli = [rng.choice([1, 2, 3, 4, 6]) for _ in range(r)]
    N = 12
    rows = [[rng.randrange(N) for _ in range(k)] for _ in range(r)]
    A = IntMatrix.from_rows(rows, cols=k)
    gens = kernel_mod(A, moduli)
    got = span_mod(gens, tuple([N] * k))
    expected = enumerate_solutions(rows, [0] * r, moduli, N)
    assert got == frozenset(expected)


@pytest.mark.parametrize("seed", range(12))
def test_hermite_kernel_against_enumeration(seed):
    rng = random.Random(f"hkernel:{seed}")
    r = rng.randint(1, 3)
    k = rng.randint(1, 3)
    moduli = [rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(r)]
    N = 12
    rows = [[rng.randrange(-N, N) for _ in range(k)] for _ in range(r)]
    gens = hermite_kernel(rows, moduli, k)
    big = lcm(*moduli)
    assert all(0 <= v < big for g in gens if big not in g for v in g)
    assert all(sorted(g) == [0] * (k - 1) + [big] for g in gens if big in g)
    got = span_mod(gens, tuple([N] * k))
    assert got == frozenset(enumerate_solutions(rows, [0] * r, moduli, N))
    # the same subgroup as the Smith-form kernel
    A = IntMatrix.from_rows(rows, cols=k)
    assert got == span_mod(kernel_mod(A, moduli), tuple([N] * k))


def test_hermite_kernel_matches_the_whole_system_key():
    # normalizing only the kept rows gives the tails of the full key
    rng = random.Random("hkernel-tails")
    for _ in range(1200):
        N = rng.choice([4, 6, 8, 9, 12, 24, 36, 72, 360])
        divs = [d for d in range(1, N + 1) if N % d == 0]
        r, k = rng.randint(0, 6), rng.randint(0, 6)
        moduli = [rng.choice(divs) for _ in range(r)]
        rows = [[rng.randrange(-N, N) if rng.random() < 0.6 else 0 for _ in range(k)]
                for _ in range(r)]
        assert hermite_kernel(rows, moduli, k) == reference_hermite_kernel(rows, moduli, k)


def test_hermite_kernel_of_no_conditions_is_everything():
    assert hermite_kernel([], [], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hermite_kernel([[0, 0]], [1], 2) == [(1, 0), (0, 1)]
    assert hermite_kernel([], [], 0) == []


def test_solve_mod_many_componentwise():
    # x = 0 mod 2 and x = 1 mod 3 -> x in {3, 9} mod 12... enumerate to be sure
    A = IntMatrix.from_rows([[1], [1]])
    res = solve_mod_many(A, [0, 1], [2, 3])
    assert res is not None
    part, hom = res
    got = {(part[0] + s[0]) % 6 for s in span_mod(hom, (6,))}
    expected = {x for x in range(6) if x % 2 == 0 and x % 3 == 1}
    assert got == expected


@pytest.mark.parametrize("seed", range(40))
def test_hermite_solve_against_enumeration(seed):
    rng = random.Random(f"hsolve:{seed}")
    r = rng.randint(1, 3)
    k = rng.randint(1, 3)
    moduli = [rng.choice([1, 1, 2, 3, 4, 6, 12]) for _ in range(r)]
    N = 12
    rows = [[rng.randrange(-N, N) for _ in range(k)] for _ in range(r)]
    b = [rng.randrange(-N, N) for _ in range(r)]
    expected = enumerate_solutions(rows, b, moduli, N)
    x = hermite_solve(hermite_system(rows, moduli, k), b, moduli)
    reference = ReferenceModSolver(rows, k, moduli).particular(b)
    assert (x is None) == (reference is None) == (not expected)
    res = solve_mod_many(IntMatrix.from_rows(rows, cols=k), b, moduli)
    if x is None:
        assert res is None
        return
    big = lcm(*moduli)
    assert all(0 <= v < big for v in x)
    part, hom = res
    assert part == x
    assert hom == hermite_kernel(rows, moduli, k)
    shifts = span_mod(hom, tuple([N] * k))
    got = {tuple((p + s) % N for p, s in zip(part, sh)) for sh in shifts}
    assert got == expected


def test_hermite_solve_of_empty_and_trivial_systems():
    assert hermite_solve(hermite_system([], [], 2), [], []) == (0, 0)
    assert hermite_solve(hermite_system([], [], 0), [], []) == ()
    assert hermite_solve(hermite_system([[5, 7]], [1], 2), [3], [1]) == (0, 0)
    # no unknowns: solvable exactly when b is zero modulo the moduli
    assert hermite_solve(hermite_system([[]], [4], 0), [8], [4]) == ()
    assert hermite_solve(hermite_system([[]], [4], 0), [1], [4]) is None
    assert solve_mod_many(IntMatrix.zeros(0, 2), [], []) == ((0, 0), [(1, 0), (0, 1)])


def _old_echelon(rows, dim):
    return reference_row_echelon([list(r) for r in rows], dim)


@pytest.mark.parametrize("seed", range(30))
def test_kernel_mod_spans_the_same_lattice_with_either_echelon(seed, monkeypatch):
    rng = random.Random(f"echelon:{seed}")
    r = rng.randint(1, 4)
    k = rng.randint(1, 4)
    moduli = [rng.choice([1, 2, 4, 6, 12, 24, 36]) for _ in range(r)]
    A = IntMatrix.from_rows([[rng.randrange(-36, 36) for _ in range(k)] for _ in range(r)],
                            cols=k)
    new = kernel_mod(A, moduli)
    monkeypatch.setattr(zmodlin, "column_echelon", _old_echelon)
    old = kernel_mod(A, moduli)
    # both lattices contain L*Z^k, so they are equal when their keys mod L are
    orders = [lcm(*moduli)] * k
    assert hermite_key(new, orders) == hermite_key(old, orders)


def test_kernel_mod_is_unchanged_on_torsion_systems(monkeypatch):
    # d*I against a chain is the system whose kernel generators reach the
    # hom_lifting witness; every row has its own pivot, so both echelons
    # leave the rows as they are and the Smith output is the same
    systems = []
    for n in (4, 8, 9, 12, 24, 36):
        for chain in divisor_chains(n, 3)[1:]:
            for d in range(2, n + 1):
                if n % d == 0:
                    systems.append((IntMatrix.diagonal([d % e for e in chain]), chain))
    new = [kernel_mod(A, chain) for A, chain in systems]
    assert new == [reference_kernel_mod(A, chain) for A, chain in systems]
    for A, chain in systems:
        rows = [list(r) + [e if i == j else 0 for j in range(len(chain))]
                for i, (r, e) in enumerate(zip(A.entries, chain))]
        m, n = len(rows), 2 * len(chain)
        U, U_inverse, diag = snf_left_transforms(rows, m, n)
        ref_S, ref_U, ref_Uinv, _ = _reference_smith(rows, m, n)
        assert (U, U_inverse, diag) == (ref_U, ref_Uinv, [ref_S[i][i] for i in range(m)])
    monkeypatch.setattr(zmodlin, "column_echelon", _old_echelon)
    assert new == [kernel_mod(A, chain) for A, chain in systems]


def test_column_echelon_preserves_lattice():
    rng = random.Random(7)
    for _ in range(20):
        dim = rng.randint(1, 3)
        cols = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(0, 6))]
        reduced = column_echelon(cols, dim)
        # lattices agree iff their spans mod 16 agree together with divisibility
        M = 16
        before = span_mod([tuple(c) for c in cols], tuple([M] * dim))
        after = span_mod(list(reduced), tuple([M] * dim))
        assert before == after
        # entries far below the bound are never reduced
        assert column_echelon(cols, dim, M) == reduced


@pytest.mark.parametrize("N", [4, 12, 72, 720])
def test_bounded_column_echelon_keeps_the_lattice_mod_n(N):
    rng = random.Random(f"bounded-echelon:{N}")
    reduced_some = False
    for _ in range(40):
        dim = rng.randint(1, 4)
        # entries start above N << 64, so their products pass the bound
        cols = [[rng.randint(-N << 72, N << 72) for _ in range(dim)]
                for _ in range(rng.randint(1, 5))]
        bound = max(abs(v) for c in cols for v in c) << 64
        cols += [[N if i == j else 0 for i in range(dim)] for j in range(dim)]
        bounded = column_echelon(cols, dim, N)
        unbounded = column_echelon(cols, dim)
        # both lattices contain N*Z^dim, so they are equal when their keys mod N are
        assert hermite_key(bounded, [N] * dim) == hermite_key(unbounded, [N] * dim)
        for b in bounded:
            pivot = next(i for i, v in enumerate(b) if v)
            assert all(abs(v) <= bound for v in b[pivot + 1:])
        reduced_some |= bounded != unbounded
    assert reduced_some


def test_bounded_column_echelon_leaves_growth_from_large_inputs():
    # the relations of one random_ses(36, 8) presentation: entries near 2^60
    # grow to 83 bits, past 36 << 64 but not 2^64 past the input, and the
    # printed presentation depends on them
    cols = [(-218303799847717248, 736165534898912868, -133292566929580516),
            (-117508101253329393, 396261605498652126, -71748437095476037),
            (-68696426837920788, 231658550350747866, -41944863435744440),
            (36, 0, 0), (0, 36, 0), (0, 0, 36)]
    unbounded = column_echelon(cols, 3)
    assert max(abs(v) for c in unbounded for v in c) > 36 << 64
    assert column_echelon(cols, 3, 36) == unbounded


def test_hermite_key_is_lattice_invariant():
    N = 6
    # same row span written two ways
    k1 = hermite_key([(2, 0), (0, 3)], (N, N))
    k2 = hermite_key([(2, 3), (2, 0), (4, 3)], (N, N))
    assert k1 == k2
    k3 = hermite_key([(1, 0)], (N, N))
    assert k3 != k1


@pytest.mark.parametrize("N", [1, 2, 6, 8, 9, 12, 72])
def test_hermite_key_matches_reference(N):
    rng = random.Random(f"hnf:{N}")
    for _ in range(60):
        w = rng.randint(0, 4)
        vs = [tuple(rng.randint(-3 * N, 3 * N) for _ in range(w))
              for _ in range(rng.randint(0, 5))]
        key = hermite_key(vs, (N,) * w)
        assert key == reference_hermite_key(vs, N, w), (vs, N)
        assert all(0 <= v <= N for row in key for v in row)


def test_hermite_extend_adds_one_vector():
    rng = random.Random("extend")
    for _ in range(300):
        orders = _random_ambient(rng)
        vs = [tuple(rng.randint(-12, 12) for _ in orders) for _ in range(rng.randint(0, 3))]
        vec = tuple(rng.randint(-12, 12) for _ in orders)
        assert hermite_extend(hermite_key(vs, orders), (vec,), orders) == \
            hermite_key(vs + [vec], orders), (vs, vec, orders)


def test_hermite_extend_adds_several_vectors():
    rng = random.Random("extend-many")
    for _ in range(300):
        orders = _random_ambient(rng)
        vs = [tuple(rng.randint(-12, 12) for _ in orders) for _ in range(rng.randint(0, 3))]
        new = [tuple(rng.randint(-12, 12) for _ in orders) for _ in range(rng.randint(0, 4))]
        key = hermite_extend(hermite_key(vs, orders), new, orders)
        assert key == hermite_key(vs + new, orders), (vs, new, orders)
        assert key_order(key, orders) == len(span_mod(vs + new, orders))


def test_hermite_key_rejects_order_zero():
    with pytest.raises(InputError):
        hermite_key([(1, 1)], (4, 0))


def _random_ambient(rng):
    # coordinate orders need not form a divisibility chain, and may be 1
    while True:
        orders = tuple(rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(0, 3)))
        if prod(orders) <= 96:
            return orders


def test_hermite_key_equal_iff_same_subgroup():
    rng = random.Random("hnf-spans")
    for _ in range(40):
        orders = _random_ambient(rng)
        by_span = {}
        by_key = {}
        for _ in range(25):
            gens = [tuple(rng.randint(-8, 8) for _ in orders)
                    for _ in range(rng.randint(0, 3))]
            span = span_mod(gens, orders)
            key = hermite_key(gens, orders)
            assert by_span.setdefault(span, key) == key
            assert by_key.setdefault(key, span) == span


def test_hermite_reduce_picks_one_coset_representative():
    rng = random.Random("hnf-cosets")
    for _ in range(40):
        orders = _random_ambient(rng)
        gens = [tuple(rng.randint(-8, 8) for _ in orders) for _ in range(rng.randint(0, 3))]
        key = hermite_key(gens, orders)
        span = span_mod(gens, orders)
        for x in product(*[range(o) for o in orders]):
            rep = hermite_reduce(x, key)
            assert (not any(rep)) == (x in span)
            shift = rng.choice(sorted(span))
            moved = tuple(a + b - 2 * o for a, b, o in zip(x, shift, orders))
            assert hermite_reduce(moved, key) == rep


@pytest.mark.parametrize("modulus", [2, 3, 4])
def test_exhaustive_tiny_systems(modulus):
    # every 1x1 and 1x2 system over small moduli against full enumeration
    for a in range(modulus):
        for b in range(modulus):
            sol = solve_linear_mod(IntMatrix.from_rows([[a]]), [b], modulus)
            expected = enumerate_solutions([[a]], [b], [modulus], modulus)
            if sol is None:
                assert expected == set()
            else:
                part, hom = sol
                got = {(part[0] + s[0]) % modulus for s in span_mod(hom, (modulus,))}
                assert got == {e[0] for e in expected}
    for a, b, c in product(range(modulus), repeat=3):
        gens = kernel_mod(IntMatrix.from_rows([[a, b]]), [modulus])
        got = span_mod(gens, (modulus, modulus))
        expected = enumerate_solutions([[a, b]], [0], [modulus], modulus)
        assert got == frozenset(expected), (a, b, c)
