"""Positive-primitive formula calculus over Z/N.

A pp formula phi(x1..xk) = "exists y1..ym : A*x + B*y = 0" is stored by its
coefficient matrices.  Its solution set in a module M is a subgroup of M^k,
computed exactly: the defining system splits into one linear congruence
system per invariant factor of M, and each block is solved by a kernel
lattice.

Elements of M^k are flattened variable-major: coordinate (j, t) of variable
x_j at invariant t sits at index j * ngens(M) + t.

The bounded catalog (``enumerate_pp``) needs no evaluation: its candidate
row spans come from Hermite keys, and two formulas are identified when the
Hermite forms of their relation lattices over each Z/p^j, p^j | N, agree on
the free coordinates, which is exactly when they define the same subgroup of
every Z/N-module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError
from .finmod import (
    CanonicalModule,
    ModuleMap,
    Presentation,
    Subgroup,
    divisors,
    normalize_presentation,
    prime_powers,
)
from .zmodlin import IntMatrix, Vec, hermite_extend, hermite_key, kernel_mod


@dataclass(frozen=True)
class PpFormula:
    free_count: int
    bound_count: int
    a: IntMatrix
    b: IntMatrix

    def __post_init__(self):
        if self.free_count < 1:
            raise InputError("pp formula needs at least one free variable")
        if self.a.rows != self.b.rows:
            raise InputError("coefficient matrices must have equal row counts")
        if self.a.cols != self.free_count or self.b.cols != self.bound_count:
            raise InputError("coefficient matrix shape mismatch")

    @property
    def rows(self) -> int:
        return self.a.rows

    def conjoin(self, other: "PpFormula") -> "PpFormula":
        """Conjunction; bound variables of the two conjuncts stay disjoint."""
        if other.free_count != self.free_count:
            raise InputError("conjunction of formulas with different free variables")
        a_rows = [list(r) for r in self.a.entries] + [list(r) for r in other.a.entries]
        b_rows = [list(r) + [0] * other.bound_count for r in self.b.entries]
        b_rows += [[0] * self.bound_count + list(r) for r in other.b.entries]
        return PpFormula(self.free_count, self.bound_count + other.bound_count,
                         IntMatrix.from_rows(a_rows, cols=self.free_count),
                         IntMatrix.from_rows(b_rows, cols=self.bound_count + other.bound_count))

    def __str__(self):
        return format_pp(self)


def trivial_formula(k: int = 1) -> PpFormula:
    """0*x = 0, satisfied by everything."""
    return PpFormula(k, 0, IntMatrix.zeros(1, k), IntMatrix.zeros(1, 0))


def divisibility_formula(d: int, modulus: int) -> PpFormula:
    """exists y : x = d*y, i.e. x - d*y = 0."""
    return PpFormula(1, 1, IntMatrix.from_rows([[1]]),
                     IntMatrix.from_rows([[(-d) % modulus]]))


def annihilator_formula(d: int) -> PpFormula:
    """d*x = 0."""
    return PpFormula(1, 0, IntMatrix.from_rows([[d]]), IntMatrix.zeros(1, 0))


@dataclass(frozen=True)
class PpPair:
    """A pp pair phi/psi with psi stored as psi & phi, so psi(M) <= phi(M)
    holds in every module by construction."""

    phi: PpFormula
    psi: PpFormula

    @classmethod
    @lru_cache(maxsize=1024)
    def of(cls, phi: PpFormula, psi: PpFormula) -> "PpPair":
        return cls(phi, psi.conjoin(phi))


@lru_cache(maxsize=4096)
def _cyclic_solutions(formula: PpFormula, d: int) -> tuple[Vec, ...]:
    """Generators of phi(Z/d) <= (Z/d)^k: the free parts, reduced mod d, of
    the ``kernel_mod`` solutions of [A | B] over Z/d, zero ones dropped."""
    k = formula.free_count
    combined = formula.a.hstack(formula.b)
    sols = (tuple(v % d for v in sol[:k])
            for sol in kernel_mod(combined, [d] * formula.rows))
    return tuple(sol for sol in sols if any(sol))


def eval_pp(formula: PpFormula, module: CanonicalModule) -> Subgroup:
    """The subgroup {x in M^k : exists y, A*x + B*y = 0} by generators.

    pp formulas commute with direct sums, so phi(M) is the sum over the
    invariant factors d_t of M of phi(Z/d_t), placed at coordinate t of
    every variable."""
    k = formula.free_count
    s = module.ngens
    gens = []
    for t, d in enumerate(module.invariants):
        for sol in _cyclic_solutions(formula, d):
            vec = [0] * (k * s)
            for j, v in enumerate(sol):
                vec[j * s + t] = v
            gens.append(tuple(vec))
    return Subgroup(tuple(module.invariants) * k, module.modulus, tuple(gens))


@dataclass(frozen=True)
class SortGroup:
    """The quotient phi(M)/psi(M) in canonical form with projection data."""

    base: CanonicalModule
    module: CanonicalModule
    phi_subgroup: Subgroup
    pres: Presentation  # quotient presentation over the phi subgroup's generators

    def express(self, ambient_vector: Sequence[int]) -> Vec:
        """Sort-group coordinates of an element of phi(M) (a vector in M^k)."""
        c = self.phi_subgroup.coords(ambient_vector)
        return self.module.reduce(self.pres.project.apply(c))

    def generator_rep(self, i: int) -> Vec:
        """An element of phi(M) <= M^k mapping to the i-th canonical generator."""
        c = self.pres.lift.col(i)
        return self.phi_subgroup.element(c)


def sort_group_from_subgroups(phi_sub: Subgroup, psi_sub: Subgroup,
                              module: CanonicalModule) -> SortGroup:
    """Quotient of an evaluated phi subgroup by an evaluated psi subgroup."""
    cols = [phi_sub.coords(g) for g in psi_sub.gens]
    pres = normalize_presentation(cols, phi_sub.module.invariants, module.modulus)
    return SortGroup(module, pres.module, phi_sub, pres)


@lru_cache(maxsize=256)
def pp_pair_value(pair: PpPair, module: CanonicalModule) -> SortGroup:
    return sort_group_from_subgroups(eval_pp(pair.phi, module),
                                     eval_pp(pair.psi, module), module)


def induced_pp_map(pair: PpPair, f: ModuleMap,
                   source: Optional[SortGroup] = None,
                   target: Optional[SortGroup] = None) -> ModuleMap:
    """The functorial map phi(M)/psi(M) -> phi(M')/psi(M') induced by f.

    Well defined because homomorphisms preserve pp-definable subgroups.
    Precomputed sort groups can be passed to avoid recomputation.
    """
    src = source if source is not None else pp_pair_value(pair, f.domain)
    dst = target if target is not None else pp_pair_value(pair, f.codomain)
    k = pair.phi.free_count
    s_dom = f.domain.ngens
    s_cod = f.codomain.ngens
    cols = []
    for i in range(src.module.ngens):
        rep = src.generator_rep(i)
        image = [0] * (k * s_cod)
        for j in range(k):
            xj = rep[j * s_dom:(j + 1) * s_dom]
            yj = f.apply(xj)
            for t in range(s_cod):
                image[j * s_cod + t] = yj[t]
        cols.append(dst.express(image))
    mat = IntMatrix.from_columns(cols, dst.module.ngens)
    return ModuleMap(src.module, dst.module, mat)


# ---------------------------------------------------------------------------
# Formula catalog


def _formula_signature(formula: PpFormula, modulus: int) -> tuple:
    """Equal for two formulas exactly when they define the same subgroup of
    (Z/d)^k for every divisor d >= 2 of the modulus.

    Over Z/d the solutions of the rows [B | A] (bound coordinates first) are
    the annihilator R^perp of their span R, and projecting R^perp onto the
    free coordinates gives the annihilator of R_x, the part of R that is zero
    on the bound coordinates.  The annihilator pairing on (Z/d)^k is perfect,
    so phi(Z/d) determines R_x and is determined by it.  The Hermite rows of
    R whose pivots are free coordinates span R_x and are its Hermite form.
    Z/d is the sum of the Z/p^j, p^j exactly dividing d, and pp formulas
    commute with direct sums, so signing at the prime powers p^j | N suffices.
    """
    k, m = formula.free_count, formula.bound_count
    rows = [b + a for a, b in zip(formula.a.entries, formula.b.entries)]
    keys = (hermite_key(rows, (q,) * (m + k)) for q in prime_powers(modulus))
    return tuple(tuple(r[m:] for r in key[m:]) for key in keys)


def _enumerate_row_spans(modulus: int, width: int, max_rows: int):
    """Representatives (as row lists) of all row-span lattices reachable with
    at most max_rows rows over Z/modulus, each yielded once by Hermite key.

    A child of a lattice adds one row.  The Hermite representative of a
    coset (coordinate i in [0, p_i) for the pivots p_i) is its
    lexicographically first member in [0, modulus)^width, so scanning the
    box of representatives in order visits every nonzero coset once, at the
    row a scan of all modulus^width rows would reach it first.

    Only the lattices new at one level are extended at the next, so the scan
    stops at the first level that adds no lattice: every later level would
    be empty too.
    """
    from itertools import product

    orders = (modulus,) * width
    zero_key = hermite_key([], orders)
    seen = {zero_key}
    level: list[tuple[tuple, list]] = [(zero_key, [])]
    for _ in range(max_rows):
        if not level:
            break
        nxt = []
        for key, rows in level:
            box = product(*(range(key[i][i]) for i in range(width)))
            next(box)  # the zero coset adds nothing
            for v in box:
                new_key = hermite_extend(key, (v,), orders)
                if new_key in seen:
                    continue
                seen.add(new_key)
                new_rows = rows + [v]
                nxt.append((new_key, new_rows))
                yield new_rows
        level = nxt


def _candidate_formulas(modulus: int, free_vars: int, max_bound: int, max_rows: int):
    """Every formula the catalog considers, in the order it considers them.

    The bound-variable count m runs only up to min(max_bound, max_rows): r
    rows use at most r bound variables.  Let V be the column transform of a
    Smith form of the r x m block B over Z/N; y -> Vy is a bijection on M^m,
    so A*x + B*y = 0 and A*x + BV*y = 0 define the same subgroup, and BV is
    zero past its first r columns.  So a formula with r <= max_rows rows and
    m > r bound variables has the class of one with r rows and r bound
    variables, whose row span the scan met earlier, at m = r <= max_bound.
    """
    yield trivial_formula(free_vars)
    if free_vars == 1:
        if max_bound >= 1:
            for d in divisors(modulus):
                yield divisibility_formula(d, modulus)
        for d in divisors(modulus):
            yield annihilator_formula(d)
    for m in range(0, min(max_bound, max_rows) + 1):
        width = free_vars + m
        for rows in _enumerate_row_spans(modulus, width, max_rows):
            a = IntMatrix.from_rows([r[:free_vars] for r in rows], cols=free_vars)
            b = IntMatrix.from_rows([r[free_vars:] for r in rows], cols=m)
            yield PpFormula(free_vars, m, a, b)


@lru_cache(maxsize=16)
def enumerate_pp(modulus: int, free_vars: int = 1, max_bound: int = 2,
                 max_rows: int = 2) -> tuple[PpFormula, ...]:
    """Deterministic catalog of pp formulas within the stated bounds.

    The catalog always begins with the divisibility formulas (exists y,
    x = d*y; requires max_bound >= 1) and the annihilator formulas (d*x = 0)
    for every divisor d of the modulus, then appends every further formula
    reachable within the bounds.  Two formulas count as equal when they
    define the same subgroup of (Z/d)^free_vars for every divisor d >= 2 of
    the modulus, compared by Hermite forms at the prime powers p^j | N (see
    ``_formula_signature``); the first representative in enumeration order
    is kept.  Since pp formulas commute with direct sums, they then agree on
    every Z/modulus-module.

    With one free variable there are at most 2^Omega(N) classes, Omega(N) the
    number of prime factors of N = modulus counted with multiplicity (one per
    member of ``prime_powers(N)``), and the scan stops once it has kept that
    many.  Proof: phi(Z/d) is a subgroup of the cyclic group Z/d, so its order
    fixes it, and by CRT Z/d is the sum of its primary parts Z/p^j, which phi
    respects.  So the class of phi is fixed by the sequences
    s_j = log_p |phi(Z/p^j)|, 0 <= j <= k, for each prime power p^k exactly
    dividing N, with s_0 = 0.  Homomorphisms carry phi(M) into phi(M').  The
    inclusion Z/p^j -> Z/p^(j+1) is injective, so s_j <= s_(j+1); the
    projection Z/p^(j+1) -> Z/p^j has a kernel of order p, so
    s_(j+1) <= s_j + 1.  Each step of s is 0 or 1, which leaves 2^k sequences
    per prime and 2^Omega(N) classes in all.  Every later candidate would be a
    dropped duplicate, so the catalog is the one the full scan builds.  With
    more free variables there is no such bound and the scan runs to the end,
    except at N = 1: it has no prime power, so every formula defines the zero
    subgroup of the zero module, and the one class 2^0 is the cap whatever
    the number of free variables.
    """
    if free_vars < 1 or max_bound < 0 or max_rows < 0:
        raise InputError("catalog bounds out of range")
    powers = prime_powers(modulus)
    cap = 2 ** len(powers) if free_vars == 1 or not powers else None
    catalog: list[PpFormula] = []
    seen_sigs = set()
    for formula in _candidate_formulas(modulus, free_vars, max_bound, max_rows):
        sig = _formula_signature(formula, modulus)
        if sig not in seen_sigs:
            seen_sigs.add(sig)
            catalog.append(formula)
            if len(catalog) == cap:
                break
    return tuple(catalog)


@lru_cache(maxsize=16)
def pp_conjunctions(modulus: int, free_vars: int, max_bound: int, max_rows: int) -> tuple:
    """For the pair (i, j) of the n formulas of ``enumerate_pp`` under these
    bounds, at i * n + j: the position of a catalog formula equivalent to
    psi_j & phi_i, else ``psi_j.conjoin(phi_i)`` for ``eval_pp``.

    A conjunction's signature is ``hermite_extend`` of its conjuncts' at each
    prime power q, so each catalog formula is signed once.  Proof: over Z/q a
    signature is the Hermite key of R_x, the part of the row span R that is
    zero on the bound coordinates.  ``conjoin`` keeps the bound variables
    apart, so R = R_phi + R_psi, R_phi zero on psi's bound coordinates and
    R_psi on phi's.  If r = r_phi + r_psi lies in R_x, then r_phi agrees with
    r, so is zero, on phi's bound coordinates: r_phi lies in R_x(phi), and
    likewise r_psi in R_x(psi).  Hence R_x(phi & psi) = R_x(phi) + R_x(psi).
    With one free variable and the class bound reached, all are found.
    """
    catalog = enumerate_pp(modulus, free_vars, max_bound, max_rows)
    sigs = [_formula_signature(phi, modulus) for phi in catalog]
    where = {sig: k for k, sig in enumerate(sigs)}
    orders = [(q,) * free_vars for q in prime_powers(modulus)]
    conjunctions = []
    for i, phi in enumerate(catalog):
        for j, psi in enumerate(catalog):
            sig = tuple(map(hermite_extend, sigs[i], sigs[j], orders))
            conjunctions.append(where[sig] if sig in where else psi.conjoin(phi))
    return tuple(conjunctions)


# ---------------------------------------------------------------------------
# Textual syntax: `E y1 y2 : 2x1 + 3y1 = 0 & y1 - y2 = 0`


def format_pp(formula: PpFormula) -> str:
    parts = []
    for r in range(formula.rows):
        terms = []
        for j in range(formula.free_count):
            c = formula.a.entries[r][j]
            if c:
                terms.append((c, f"x{j + 1}"))
        for l in range(formula.bound_count):
            c = formula.b.entries[r][l]
            if c:
                terms.append((c, f"y{l + 1}"))
        if not terms:
            parts.append("0 = 0")
            continue
        pieces = []
        for idx, (c, name) in enumerate(terms):
            mag = abs(c)
            body = name if mag == 1 else f"{mag}{name}"
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        parts.append(" ".join(pieces) + " = 0")
    clause = " & ".join(parts)
    if formula.bound_count:
        ys = " ".join(f"y{i + 1}" for i in range(formula.bound_count))
        return f"E {ys} : {clause}"
    return clause
