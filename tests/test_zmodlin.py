import json
import random
import time
from itertools import product
from math import gcd, lcm, prod
from pathlib import Path

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
from zpure.finmod import Subgroup

from helpers import smith_normal_form, smith_riders

from oracles import (
    ReferenceModSolver,
    det_fraction,
    elementary_invariant_factors,
    enumerate_solutions,
    reference_divisor_chains,
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


def _mod_matrix(M, N):
    return [[v % N for v in row] for row in M.entries]


def test_smith_reduce_matches_reference_with_every_rider():
    # the package reduces over Z/N only: the invariants of A over Z/N are
    # gcd(s, N) for the integer invariants s of A (zeros past its rank), and
    # U must carry the column lattice of A plus N*Z^m onto the diagonal one.
    # The integer invariants come from the minor-gcd oracle: the integer
    # reference reduction runs for minutes on some of these matrices.
    shapes = [(m, n) for m in range(5) for n in range(6)]
    for N in (4, 12, 36, 72, 360):
        rng = random.Random(f"smith-riders:{N}")
        for trial in range(600):
            m, n = shapes[trial % len(shapes)]
            rows = [[rng.randrange(N) if rng.random() < 0.8 else 0 for _ in range(n)]
                    for _ in range(m)]
            S, Uinv = smith_riders(rows, m, n)
            smith_reduce(S, m, n, N, Uinv)
            assert all(0 <= v < N for r in S for v in r), rows
            D = [r[:n] for r in S[:m]]
            U = IntMatrix.from_rows([r[n:] for r in S[:m]], cols=m)
            V = IntMatrix.from_rows(S[m:], cols=n)
            A = IntMatrix.from_rows(rows, cols=n)
            assert _mod_matrix(U @ A @ V, N) == D, rows
            assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j), rows
            assert _mod_matrix(U @ IntMatrix.from_rows(Uinv, cols=m), N) == \
                _mod_matrix(IntMatrix.identity(m), N), rows
            invariants = [gcd(D[i][i] if i < n else 0, N) for i in range(m)]
            integer = elementary_invariant_factors(rows)
            assert invariants == [gcd(s, N) for s in integer + [0] * (m - len(integer))], rows
            diagonal = [[s * int(i == j) for j in range(m)] for i, s in enumerate(invariants)]
            assert hermite_key([U.apply(c) for c in A.columns()], [N] * m) == \
                hermite_key(diagonal, [N] * m), rows
            assert snf_left_transforms(rows, m, n, N) == (U.tolists(), Uinv, invariants)


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


def _same_kernel_lattice(A, moduli, *kernels):
    # every kernel lattice contains L*Z^k, so two are equal when their keys mod L are
    orders = [lcm(*moduli)] * A.cols
    keys = {hermite_key(gens, orders) for gens in kernels}
    return len(keys) == 1


@pytest.mark.parametrize("seed", range(30))
def test_kernel_mod_spans_the_same_lattice_with_either_echelon(seed, monkeypatch):
    # kernel_mod reads the Hermite kernel; the reference takes V from an
    # integer Smith reduction, with either echelon shrinking its input
    rng = random.Random(f"echelon:{seed}")
    r = rng.randint(1, 4)
    k = rng.randint(1, 4)
    moduli = [rng.choice([1, 2, 4, 6, 12, 24, 36]) for _ in range(r)]
    A = IntMatrix.from_rows([[rng.randrange(-36, 36) for _ in range(k)] for _ in range(r)],
                            cols=k)
    new = kernel_mod(A, moduli)
    assert new == hermite_kernel(A.entries, moduli, k)
    ref = reference_kernel_mod(A, moduli)
    monkeypatch.setattr(zmodlin, "column_echelon", _old_echelon)
    old = reference_kernel_mod(A, moduli)
    assert _same_kernel_lattice(A, moduli, new, ref, old)


def test_kernel_mod_is_unchanged_on_torsion_systems():
    # d*I against a chain is the system whose kernel generators reach the
    # hom_lifting witness: the kernel lattice and the Smith invariants over
    # Z/N of [d*I | diag(chain)] agree with the integer references
    systems = []
    for n in (4, 8, 9, 12, 24, 36):
        for chain in reference_divisor_chains(n, 3)[1:]:
            for d in range(2, n + 1):
                if n % d == 0:
                    systems.append((n, IntMatrix.diagonal([d % e for e in chain]), chain))
    for n, A, chain in systems:
        assert _same_kernel_lattice(A, chain, kernel_mod(A, chain), reference_kernel_mod(A, chain))
        rows = [list(r) + [e if i == j else 0 for j in range(len(chain))]
                for i, (r, e) in enumerate(zip(A.entries, chain))]
        m = len(rows)
        ref_S = _reference_smith(rows, m, 2 * m)[0]
        assert snf_left_transforms(rows, m, 2 * m, n)[2] == [ref_S[i][i] for i in range(m)]


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


STALLED_SYSTEMS = Path(__file__).resolve().parent / "data" / "stalled_kernel_systems.json"


@pytest.mark.parametrize("name", ["random-max-gens-6", "lemmas-360-seed-3-nat"])
def test_kernel_mod_finishes_on_the_systems_that_stalled(name):
    # the integer Smith reduction in kernel_mod ran for minutes on these two
    # systems (`random --modulus 12 --trials 20 --seed 1 --max-gens 6` and
    # `lemmas --modulus 360 --trials 10 --seed 3`): its block reached about
    # 1.5 million bits; the Hermite kernel keeps every entry below lcm(moduli)
    system = json.loads(STALLED_SYSTEMS.read_text())[name]
    moduli = system["moduli"]
    A = IntMatrix.from_rows(system["rows"], cols=system["cols"])
    L = lcm(*moduli)
    start = time.perf_counter()
    gens = kernel_mod(A, moduli)
    sub = Subgroup(tuple(moduli), L, tuple(A.columns()))
    pres = sub.presentation
    assert time.perf_counter() - start < 0.5
    assert all(0 <= v <= L for g in gens for v in g)
    assert all(not any(v % o for v, o in zip(A.apply(g), moduli)) for g in gens)
    # |kernel| * |image| == L^k, counted from Hermite keys alone
    kernel_order = key_order(hermite_key(gens, [L] * A.cols), [L] * A.cols)
    assert kernel_order * sub.cardinality == L ** A.cols
    assert pres.module.cardinality == sub.cardinality
    assert all(0 <= v < L for row in pres.project.entries + pres.lift.entries for v in row)


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
