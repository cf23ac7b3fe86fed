"""Exact integer and modular linear algebra.

Everything here works with arbitrary-precision Python integers; no rounding
can occur.  This module is the computational substrate for the rest of the
package: Smith normal form over Z/N with its transforms, solving linear
congruence systems with componentwise moduli, and kernel lattices.

Every reduction whose result has only one correct value goes through one
kernel: ``hermite_key`` gives the Hermite normal form of a subgroup of
prod Z/o_i, reducing entries modulo the orders o_i as it eliminates, and
``hermite_reduce`` gives the unique representative of a coset.  Subgroup
orders, membership tests and the pp catalog's deduplication all use them.
So does solving: ``hermite_system`` is the key of a system A*x == b
(mod moduli), from which ``hermite_solve`` reads one solution and
``hermite_kernel`` (and so ``kernel_mod``) the homogeneous ones, with
entries below lcm(moduli).  The system key holds the homogeneous solutions
too: its rows past the moduli have them as tails, which is how a subgroup
reads the relations among its generators.

The Smith form (``smith_reduce``) runs over Z/N only, so no entry leaves
[0, N): it reads invariant factors, and its U and U^-1 (mod N) are the
``project``/``lift`` matrices of ``finmod.normalize_presentation``, which
presents prod Z/o_i modulo a span of columns by first taking the
``hermite_key`` of those columns with the orders o_i.  It is one
routine: U and V ride along as an identity to the right of the matrix and
one below it, and only U^-1 is passed separately.  ``column_echelon``, an
integer echelon, has no caller here: it shrinks the input of the integer
reference kernel that the tests compare ``kernel_mod`` with.

Matrix convention (fixed package-wide): a matrix represents a map acting on
coordinate *columns*, rows are indexed by the codomain and columns by the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Optional, Sequence

from .errors import InputError

Vec = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit dimensions.

    Dimensions are stored separately so that empty shapes (0 x n, n x 0)
    stay well defined.
    """

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise InputError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError("ragged matrix entries")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        return cls(len(grid), cols, grid)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        return cls(rows, len(columns), tuple(tuple(c[i] for c in columns) for i in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls(n, n, tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def tolists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[Vec]:
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise InputError("hstack: row mismatch")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(self.entries[i] + other.entries[i] for i in range(self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matmul: dimension mismatch")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                               for row in self.entries))

    def apply(self, vector: Sequence[int]) -> Vec:
        if len(vector) != self.cols:
            raise InputError("apply: dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __repr__(self):
        return f"IntMatrix({self.tolists()!r})"


def smith_reduce(S: list[list[int]], m: int, n: int, modulus: int,
                 inverse: Optional[list[list[int]]] = None) -> None:
    """Smith-reduce the top-left m x n block of the row list ``S`` over
    Z/modulus, in place.

    The block's column lattice is taken together with modulus*Z^m, so every
    entry can be kept in [0, modulus): the block is reduced first and each
    operation reduces what it writes.  Classical Euclidean pivoting: move a
    minimal nonzero entry to the pivot, clear its row and column, and absorb
    any entry of the remaining block that the pivot does not divide, so the
    diagonal is a divisibility chain and gcd(s, modulus) is the invariant of
    a diagonal entry s (0 gives modulus).  Row operations act on whole rows
    and column operations on whole columns, so an identity right of the
    block comes out as U and one below it as V, with U*A*V the reduced block
    mod modulus.  U^-1 cannot ride along, as it takes each row operation's
    inverse as a column operation: ``inverse``, an m x m identity when
    given, comes out as U^-1 mod modulus.
    """

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        if inverse is not None:
            for r in inverse:
                r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j ; the inverse's column j -= c * column i
        S[i] = [(a + c * b) % modulus for a, b in zip(S[i], S[j])]
        if inverse is not None:
            for r in inverse:
                r[j] = (r[j] - c * r[i]) % modulus

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):
        for r in S:
            r[i] = (r[i] + c * r[j]) % modulus

    for r in S[:m]:
        r[:n] = [v % modulus for v in r[:n]]
    t = 0
    while t < min(m, n):
        piv = None
        best = modulus
        for i in range(t, m):
            Si = S[i]
            for j in range(t, n):
                v = Si[j]
                if 0 < v < best:
                    best = v
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
            bad = next((i for i in range(t + 1, m) for v in S[i][t + 1:n] if v % d), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1


def snf_left_transforms(rows: Sequence[Sequence[int]], m: int, n: int, modulus: int):
    """(U, U_inverse, invariants) mod ``modulus`` for an m x n matrix A over
    Z/modulus: U*A*V = diag(invariants) mod modulus, with m invariants, each
    dividing modulus.  U rides as an identity right of A, U^-1 is
    ``smith_reduce``'s ``inverse``."""
    S = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    smith_reduce(S, m, n, modulus, Uinv)
    return [r[n:] for r in S], Uinv, [gcd(S[i][i] if i < n else 0, modulus) for i in range(m)]


def column_echelon(columns: Sequence[Sequence[int]], dim: int) -> list[Vec]:
    """Reduce a generating set of an integer column lattice in Z^dim.

    Returns a triangular generating set (at most ``dim`` columns) of the same
    lattice; no transform is tracked, so this is cheap preprocessing for
    presentations with many redundant relation columns.
    """
    basis: list[Optional[list[int]]] = [None] * dim
    for col in columns:
        vec = list(col)
        i = 0
        while i < dim:
            v = vec[i]
            if v == 0:
                i += 1
                continue
            b = basis[i]
            if b is None:
                basis[i] = vec
                break
            a = b[i]
            if v % a == 0:
                q = v // a
                for k in range(i, dim):
                    vec[k] -= q * b[k]
                i += 1
            else:
                x, y, g = xgcd(a, v)
                ag, vg = a // g, v // g
                for k in range(i, dim):
                    bk, vk = b[k], vec[k]
                    b[k] = x * bk + y * vk
                    vec[k] = -vg * bk + ag * vk
                i += 1
    return [tuple(b) for b in basis if b is not None]


def hermite_key(vectors: Sequence[Sequence[int]], orders: Sequence[int]) -> tuple[Vec, ...]:
    """Hermite normal form of the lattice spanned by ``vectors`` and o_i*e_i.

    The lattice contains every o_i*e_i, so it has full rank and the form is
    square: row i is zero left of its pivot p_i, p_i divides o_i, and every
    entry above a pivot p_j lies in [0, p_j).  Because o_i*e_i belongs to the
    lattice, coordinate i is reduced modulo o_i while eliminating, and no
    entry grows past max(orders).

    The form is unique, so it is a canonical key: two generating sets span
    the same subgroup of prod Z/o_i exactly when their keys are equal, and
    that subgroup has order prod(o_i) / prod(p_i).
    """
    return _hermite_normalize(_hermite_basis(vectors, orders))


def _hermite_basis(vectors: Sequence[Sequence[int]], orders: Sequence[int]) -> list[list[int]]:
    """The triangular basis of ``hermite_key`` before its normalization."""
    if any(o < 1 for o in orders):
        raise InputError("orders must be >= 1")
    basis = [[o if i == j else 0 for j in range(len(orders))] for i, o in enumerate(orders)]
    _hermite_insert(basis, vectors, orders)
    return basis


def hermite_extend(key: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]],
                   orders: Sequence[int]) -> tuple[Vec, ...]:
    """``hermite_key(key + vectors, orders)`` for a key made for ``orders``,
    computed by inserting only the new vectors into the key's rows."""
    basis = [list(r) for r in key]
    _hermite_insert(basis, vectors, orders)
    return _hermite_normalize(basis)


def key_order(key: Sequence[Sequence[int]], orders: Sequence[int]) -> int:
    """The order of the subgroup of prod Z/o_i whose key is ``key``."""
    return prod(orders) // prod(row[i] for i, row in enumerate(key))


def _hermite_insert(basis: list[list[int]], vectors: Sequence[Sequence[int]],
                    orders: Sequence[int]):
    """Add ``vectors`` to the lattice of a triangular basis, in place.

    The rows from k on must span o_k*e_k for every k, as they do in diag(o)
    and in every key.  Row i is combined with a vector by an extended-gcd
    step that clears coordinate i of the vector; rows below i are still
    untouched then, so reducing coordinate k > i modulo o_k keeps the
    lattice, and the result again has the property.
    """
    w = len(orders)
    for vec in vectors:
        v = [x % o for x, o in zip(vec, orders)]
        for i in range(w):
            a = v[i]
            if a == 0:
                continue
            b = basis[i]
            x, y, g = xgcd(b[i], a)
            bg, ag = b[i] // g, a // g
            for k in range(i + 1, w):
                bk, vk, o = b[k], v[k], orders[k]
                b[k] = (x * bk + y * vk) % o
                v[k] = (bg * vk - ag * bk) % o
            b[i] = g


def _hermite_normalize(basis: list[list[int]], start: int = 0) -> tuple[Vec, ...]:
    """Reduce every entry above a pivot into [0, pivot); returns the key's
    rows from ``start`` on, which only the rows below them change."""
    w = len(basis)
    for j in range(start, w):
        row = basis[j]
        p = row[j]
        for r in range(start, j):
            q = basis[r][j] // p
            if q:
                other = basis[r]
                for k in range(j, w):
                    other[k] -= q * row[k]
    return tuple(tuple(r) for r in basis[start:])


def hermite_system(rows: Sequence[Sequence[int]], moduli: Sequence[int],
                   width: int) -> tuple[Vec, ...]:
    """Key of the system rows*x == b componentwise mod ``moduli``.

    It is ``hermite_key`` of the columns (column j of rows ; e_j) with orders
    moduli + [L] * width, L = lcm(moduli).  Its lattice holds (b ; y) exactly
    when y == x (mod L) for a solution x of rows*x == b, because L*Z^width
    solves the homogeneous system, and no entry exceeds L.
    """
    return hermite_key(*_system_columns(rows, moduli, width))


def _system_columns(rows: Sequence[Sequence[int]], moduli: Sequence[int], width: int):
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(width)] for j in range(width)]
    return cols, list(moduli) + [lcm(*moduli)] * width


def hermite_kernel(rows: Sequence[Sequence[int]], moduli: Sequence[int],
                   width: int) -> list[Vec]:
    """Generators of {x in Z^width : rows*x == 0 componentwise mod moduli},
    with entries in [0, L), L = lcm(moduli), except the generators L*e_j.

    The vectors of the ``hermite_system`` lattice with zero head are the
    (0 ; x) for solutions x; its rows from len(moduli) on span them.
    """
    r = len(moduli)
    basis = _hermite_basis(*_system_columns(rows, moduli, width))
    return [row[r:] for row in _hermite_normalize(basis, r)]


def hermite_solve(key: Sequence[Sequence[int]], b: Sequence[int],
                  moduli: Sequence[int]) -> Optional[Vec]:
    """One solution x in [0, L)^width of rows*x == b (mod moduli), or None,
    for the ``key`` of ``hermite_system(rows, moduli, width)``.

    Reducing (b ; 0) gives (0 ; t) exactly when the system is solvable; then
    (b ; -t) lies in the lattice, so x = -t mod L solves it.
    """
    r = len(moduli)
    t = hermite_reduce(tuple(b) + (0,) * (len(key) - r), key)
    if any(t[:r]):
        return None
    big = lcm(*moduli)
    return tuple(-v % big for v in t[r:])


def hermite_reduce(vec: Sequence[int], key: Sequence[Sequence[int]]) -> Vec:
    """The unique representative of ``vec`` modulo the lattice of ``key``.

    Coordinate i of the result lies in [0, p_i), so ``vec`` belongs to the
    lattice exactly when the result is zero.
    """
    v = list(vec)
    for i, row in enumerate(key):
        q = v[i] // row[i]
        if q:
            for k in range(i, len(v)):
                v[k] -= q * row[k]
    return tuple(v)


def solve_mod_many(A: IntMatrix, b: Sequence[int], moduli: Sequence[int]) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve A*x == b componentwise mod ``moduli`` (one modulus per row).

    Returns (particular solution, generators of the homogeneous solution
    lattice in Z^cols) or None if no solution exists, both read off one
    ``hermite_system`` key.  The homogeneous lattice always contains
    lcm(moduli)*Z^cols, so its generators also generate the solution
    subgroup after any further reduction.
    """
    r, k = A.rows, A.cols
    if len(b) != r or len(moduli) != r:
        raise InputError("solve_mod_many: dimension mismatch")
    key = hermite_system(A.entries, moduli, k)
    part = hermite_solve(key, b, moduli)
    if part is None:
        return None
    return part, [row[r:] for row in key[r:]]


def kernel_mod(A: IntMatrix, target_moduli: Sequence[int]) -> list[Vec]:
    """Generators of {x in Z^cols : A*x == 0 componentwise mod target_moduli}.

    The returned vectors generate the full integer solution lattice, which
    contains lcm(target_moduli)*Z^cols; reducing them modulo any ambient
    modulus therefore yields generators of the solution subgroup there.
    They are the ``hermite_kernel`` rows, so they depend only on that lattice.
    """
    if len(target_moduli) != A.rows:
        raise InputError("kernel_mod: dimension mismatch")
    return hermite_kernel(A.entries, target_moduli, A.cols)


def solve_linear_mod(A: IntMatrix, b: Sequence[int], modulus: int) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve A*x == b (mod modulus); all rows share one modulus.

    Returns (particular, homogeneous generators), both reduced mod modulus,
    or None when the system has no solution.
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if len(b) != A.rows:
        raise InputError("solve_linear_mod: dimension mismatch")
    res = solve_mod_many(A, b, [modulus] * A.rows)
    if res is None:
        return None
    part, hom = res
    hom_red = []
    seen = set()
    for h in hom:
        hr = tuple(v % modulus for v in h)
        if any(hr) and hr not in seen:
            seen.add(hr)
            hom_red.append(hr)
    return part, hom_red
