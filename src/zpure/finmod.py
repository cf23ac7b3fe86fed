"""Finite modules over Z/N and their arithmetic.

A finite Z/N-module is stored in invariant-factor form: a divisibility chain
(d_1 | d_2 | ... | d_k | N) with every d_i >= 2, the empty chain being the
zero module.  Because the form is canonical, two modules are isomorphic
exactly when they are equal, so isomorphism testing is equality testing.

Homomorphisms are integer matrices acting on coordinate columns: rows are
indexed by codomain generators, columns by domain generators, and the j-th
domain generator is sent to sum_i a_ij * u_i.  This convention is global to
the package and to the CLI file formats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import InputError, InternalCheckError
from .zmodlin import (
    IntMatrix,
    Vec,
    hermite_key,
    hermite_reduce,
    hermite_solve,
    hermite_system,
    kernel_mod,
    key_order,
    snf_left_transforms,
)


@dataclass(frozen=True)
class CanonicalModule:
    modulus: int
    invariants: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise InputError("modulus must be >= 1")
        prev = None
        for d in self.invariants:
            if d < 2:
                raise InputError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise InputError("invariant factors must form a divisibility chain")
            prev = d
        if self.invariants and self.modulus % self.invariants[-1]:
            raise InputError("invariant factors must divide the modulus")

    @classmethod
    def zero(cls, modulus: int) -> "CanonicalModule":
        return cls(modulus, ())

    @classmethod
    def cyclic(cls, modulus: int, d: int) -> "CanonicalModule":
        if d == 1:
            return cls(modulus, ())
        return cls(modulus, (d,))

    @property
    def ngens(self) -> int:
        return len(self.invariants)

    @property
    def cardinality(self) -> int:
        return prod(self.invariants)

    def is_zero(self) -> bool:
        return not self.invariants

    def reduce(self, vector: Sequence[int]) -> Vec:
        if len(vector) != self.ngens:
            raise InputError("element has wrong length")
        return tuple(v % d for v, d in zip(vector, self.invariants))

    def elements(self) -> Iterator[Vec]:
        return product(*[range(d) for d in self.invariants])

    def generator(self, j: int) -> Vec:
        return tuple(1 if i == j else 0 for i in range(self.ngens))

    def __str__(self):
        if not self.invariants:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.invariants)


@dataclass(frozen=True)
class Presentation:
    """prod Z/o_i modulo a span of columns, in canonical form.

    ``project`` maps the o_i coordinate columns onto canonical coordinates;
    ``lift`` is a section of it: project @ lift == identity modulo the
    invariant factors.  Both have entries in [0, modulus).
    """

    module: CanonicalModule
    project: IntMatrix
    lift: IntMatrix


def normalize_presentation(columns: Sequence[Sequence[int]], orders: Sequence[int],
                           modulus: int) -> Presentation:
    """Canonical form of prod Z/o_i modulo the span of ``columns``.

    Every quotient in the package is presented here.  The relation lattice,
    ``columns`` together with the o_i*e_i, is put into Hermite form
    (``hermite_key``) before the Smith reduction over Z/modulus, so the
    result depends only on that lattice, not on the columns that span it.
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if any(o < 1 or modulus % o for o in orders):
        raise InputError("presentation orders must be >= 1 and divide the modulus")
    g = len(orders)
    if any(len(c) != g for c in columns):
        raise InputError("relation column has wrong length")
    key = hermite_key(columns, orders)
    U, Uinv, diag = snf_left_transforms(list(zip(*key)), g, g, modulus)
    keep = [i for i in range(g) if diag[i] > 1]
    module = CanonicalModule(modulus, tuple(diag[i] for i in keep))
    project = IntMatrix(len(keep), g, tuple(tuple(U[i]) for i in keep))
    lift = IntMatrix(g, len(keep), tuple(tuple(Uinv[r][i] for i in keep) for r in range(g)))
    return Presentation(module, project, lift)


@dataclass(frozen=True)
class ModuleMap:
    domain: CanonicalModule
    codomain: CanonicalModule
    matrix: IntMatrix

    def __post_init__(self):
        if self.domain.modulus != self.codomain.modulus:
            raise InputError("module map across different moduli")
        if self.matrix.rows != self.codomain.ngens or self.matrix.cols != self.domain.ngens:
            raise InputError("module map matrix has wrong shape")
        normalized = tuple(
            tuple(v % e for v in row)
            for row, e in zip(self.matrix.entries, self.codomain.invariants)
        )
        for j, d in enumerate(self.domain.invariants):
            for i, e in enumerate(self.codomain.invariants):
                if (d * normalized[i][j]) % e:
                    raise InputError(
                        f"ill-defined map: generator of order {d} sent to element "
                        f"not killed by {d} (entry {normalized[i][j]} mod {e})")
        object.__setattr__(self, "matrix",
                           IntMatrix(self.matrix.rows, self.matrix.cols, normalized))

    @classmethod
    def from_rows(cls, domain: CanonicalModule, codomain: CanonicalModule,
                  rows: Sequence[Sequence[int]]) -> "ModuleMap":
        return cls(domain, codomain, IntMatrix.from_rows(rows, cols=domain.ngens))

    @classmethod
    def identity(cls, module: CanonicalModule) -> "ModuleMap":
        return cls(module, module, IntMatrix.identity(module.ngens))

    @classmethod
    def zero(cls, domain: CanonicalModule, codomain: CanonicalModule) -> "ModuleMap":
        return cls(domain, codomain, IntMatrix.zeros(codomain.ngens, domain.ngens))

    def apply(self, x: Sequence[int]) -> Vec:
        return self.codomain.reduce(self.matrix.apply(self.domain.reduce(x)))

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition: (f @ g)(x) == f(g(x))."""
        if other.codomain != self.domain:
            raise InputError("composition type mismatch")
        return ModuleMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.domain, self.codomain,
                         IntMatrix(self.matrix.rows, self.matrix.cols,
                                   tuple(tuple(c * v for v in row) for row in self.matrix.entries)))

    def is_zero_map(self) -> bool:
        return self.matrix.is_zero()

    def image(self) -> "Subgroup":
        return Subgroup(self.codomain.invariants, self.codomain.modulus,
                        tuple(self.matrix.col(j) for j in range(self.matrix.cols)))

    def kernel(self) -> "Subgroup":
        gens = kernel_mod(self.matrix, self.codomain.invariants)
        return Subgroup(self.domain.invariants, self.domain.modulus,
                        tuple(self.domain.reduce(g) for g in gens))

    def is_injective(self) -> bool:
        return self.image().cardinality == self.domain.cardinality

    def is_surjective(self) -> bool:
        return self.image().cardinality == self.codomain.cardinality

    def is_bijective(self) -> bool:
        return (self.domain.cardinality == self.codomain.cardinality
                and self.is_surjective())


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a product of cyclic groups, given by generators.

    ``ambient_orders`` lists the order of each coordinate (each dividing the
    modulus); the ambient need not be in canonical chain form.
    """

    ambient_orders: tuple[int, ...]
    modulus: int
    gens: tuple[Vec, ...]

    def __post_init__(self):
        n = len(self.ambient_orders)
        if any(len(g) != n for g in self.gens):
            raise InputError("subgroup generator has wrong length")
        reduced = (tuple(v % o for v, o in zip(g, self.ambient_orders)) for g in self.gens)
        object.__setattr__(self, "gens", tuple(g for g in reduced if any(g)))

    def _check(self, x: Sequence[int]):
        if len(x) != len(self.ambient_orders):
            raise InputError("element has wrong length")

    @cached_property
    def _gen_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.gens, len(self.ambient_orders))

    @cached_property
    def _system(self) -> tuple[Vec, ...]:
        """Hermite key of gens*c == x (mod ambient_orders), for ``coords``."""
        return hermite_system(self._gen_matrix.entries, self.ambient_orders, len(self.gens))

    @cached_property
    def presentation(self) -> Presentation:
        """The key's rows past the ambient coordinates have the relations
        among the generators as tails: they are the ``hermite_kernel`` rows."""
        n = len(self.ambient_orders)
        return normalize_presentation([row[n:] for row in self._system[n:]],
                                      (self.modulus,) * len(self.gens), self.modulus)

    @property
    def module(self) -> CanonicalModule:
        return self.presentation.module

    @cached_property
    def key(self) -> tuple[Vec, ...]:
        """Hermite key: subgroups of one ambient are equal iff keys are."""
        return hermite_key(self.gens, self.ambient_orders)

    @cached_property
    def cardinality(self) -> int:
        return key_order(self.key, self.ambient_orders)

    def contains(self, x: Sequence[int]) -> bool:
        self._check(x)
        return not any(hermite_reduce(x, self.key))

    def coords(self, x: Sequence[int]) -> Vec:
        """Coordinates of x in the canonical form of the subgroup."""
        self._check(x)
        sol = hermite_solve(self._system, x, self.ambient_orders)
        if sol is None:
            raise InputError("element not in subgroup")
        return self.module.reduce(self.presentation.project.apply(sol))

    def element(self, coords: Sequence[int]) -> Vec:
        """Ambient vector realizing canonical coordinates."""
        vec = self._gen_matrix.apply(self.presentation.lift.apply(coords))
        return tuple(v % o for v, o in zip(vec, self.ambient_orders))

    def inclusion_into(self, ambient: CanonicalModule) -> ModuleMap:
        if ambient.invariants != self.ambient_orders:
            raise InputError("ambient module does not match subgroup coordinates")
        q = self.module.ngens
        cols = [self.element(self.module.generator(i)) for i in range(q)]
        mat = IntMatrix.from_columns(cols, ambient.ngens)
        return ModuleMap(self.module, ambient, mat)


def quotient_by_subgroup(ambient: CanonicalModule,
                         sub: Subgroup) -> tuple[CanonicalModule, ModuleMap, IntMatrix]:
    """Quotient ambient/sub: (module, projection map, integer section of it)."""
    if sub.ambient_orders != ambient.invariants:
        raise InputError("subgroup does not live in the given ambient module")
    pres = normalize_presentation(sub.gens, ambient.invariants, ambient.modulus)
    proj = ModuleMap(ambient, pres.module, pres.project)
    return pres.module, proj, pres.lift


# ---------------------------------------------------------------------------
# Hom groups


@dataclass(frozen=True)
class HomModule:
    """Hom(source, target) as a canonical module plus realization data.

    Internally the group is a product of cyclic pieces, one per pair of
    generators: the (i, j) coordinate has order gcd(d_j, e_i) and value c
    stands for the matrix entry c * (e_i / gcd(d_j, e_i)).
    """

    source: CanonicalModule
    target: CanonicalModule
    module: CanonicalModule
    orders: tuple[int, ...]
    pres: Presentation

    @cached_property
    def carriers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(g, e/g) per raw coordinate, one row per target generator of order e."""
        k = self.source.ngens
        return tuple(tuple((g, e // g) for g in self.orders[i * k:(i + 1) * k])
                     for i, e in enumerate(self.target.invariants))

    def entries(self, element: Sequence[int]) -> list[list[int]]:
        """Matrix entries of the map ``element``: raw coordinate c gives (c mod g)(e/g)."""
        raw = iter([sum(map(mul, row, element)) for row in self.pres.lift.entries])
        return [[(next(raw) % g) * s for g, s in row] for row in self.carriers]

    def coords(self, entries: Sequence[Sequence[int]]) -> Vec:
        """The element with these matrix entries, read mod e; each must be a multiple of e/g."""
        raw = []
        for row, carrier, e in zip(entries, self.carriers, self.target.invariants):
            for a, (g, step) in zip(row, carrier):
                a %= e
                if a % step:
                    raise InternalCheckError("hom entry outside the cyclic carrier")
                raw.append((a // step) % g)
        return tuple(sum(map(mul, row, raw)) % m
                     for row, m in zip(self.pres.project.entries, self.module.invariants))

    def to_map(self, element: Sequence[int]) -> ModuleMap:
        rows = tuple(map(tuple, self.entries(element)))
        return ModuleMap(self.source, self.target, IntMatrix(len(rows), self.source.ngens, rows))

    def from_map(self, f: ModuleMap) -> Vec:
        if f.domain != self.source or f.codomain != self.target:
            raise InputError("map does not belong to this hom group")
        return self.coords(f.matrix.entries)

    def maps(self) -> Iterator[ModuleMap]:
        for el in self.module.elements():
            yield self.to_map(el)


@lru_cache(maxsize=1024)
def hom_module(source: CanonicalModule, target: CanonicalModule) -> HomModule:
    """The group of homomorphisms source -> target as a canonical module."""
    if source.modulus != target.modulus:
        raise InputError("hom across different moduli")
    orders = tuple(gcd(d, e) for e in target.invariants for d in source.invariants)
    pres = normalize_presentation((), orders, source.modulus)
    return HomModule(source, target, pres.module, orders, pres)


def _hom_push(hsrc: HomModule, hdst: HomModule, columns: Sequence[Sequence[int]],
              left: Optional[IntMatrix] = None, right: Optional[IntMatrix] = None,
              proj: Optional[ModuleMap] = None) -> list[Vec]:
    """Coordinates in hdst of h -> left @ h @ right, for each element h of
    hsrc in ``columns``, pushed on to proj's codomain when proj is given.

    This is ``hdst.from_map(left @ hsrc.to_map(h) @ right)`` on integer
    tables: ``hsrc.entries`` gives the matrix of h, and ``hdst.coords``
    reads the product back, carrier check included.  Composites of
    well-defined maps are well defined, so no intermediate ModuleMap is built.
    """
    k = hsrc.source.ngens
    lrows = None if left is None else left.entries
    rcols = None if right is None else right.columns()
    out = []
    for x in columns:
        h = hsrc.entries(x)
        if lrows is not None:
            h = [[sum(a * r[j] for a, r in zip(lrow, h)) for j in range(k)] for lrow in lrows]
        if rcols is not None:
            h = [[sum(map(mul, row, c)) for c in rcols] for row in h]
        coords = hdst.coords(h)
        if proj is not None:
            coords = tuple(sum(map(mul, row, coords)) % m
                           for row, m in zip(proj.matrix.entries, proj.codomain.invariants))
        out.append(coords)
    return out


@lru_cache(maxsize=1024)
def _generators(module: CanonicalModule) -> tuple[Vec, ...]:
    return tuple(module.generator(i) for i in range(module.ngens))


def postcompose(v: ModuleMap, source: CanonicalModule) -> ModuleMap:
    """Hom(source, dom v) -> Hom(source, cod v), h -> v o h."""
    hsrc = hom_module(source, v.domain)
    hdst = hom_module(source, v.codomain)
    cols = _hom_push(hsrc, hdst, _generators(hsrc.module), left=v.matrix)
    return ModuleMap(hsrc.module, hdst.module, IntMatrix.from_columns(cols, hdst.module.ngens))


def precompose(u: ModuleMap, target: CanonicalModule) -> ModuleMap:
    """Hom(cod u, target) -> Hom(dom u, target), h -> h o u."""
    hsrc = hom_module(u.codomain, target)
    hdst = hom_module(u.domain, target)
    cols = _hom_push(hsrc, hdst, _generators(hsrc.module), right=u.matrix)
    return ModuleMap(hsrc.module, hdst.module, IntMatrix.from_columns(cols, hdst.module.ngens))


# ---------------------------------------------------------------------------
# Character duals


def dual_module(module: CanonicalModule) -> HomModule:
    """M* = Hom(M, Z/N), the characters with values in the N-torsion of Q/Z.

    Raw coordinate c_j of a character chi stands for chi(u_j) = c_j * N / d_j,
    so M* is M itself with identity ``pres``; ``entries`` gives the values of
    chi on the generators and ``coords`` reads a character back from them.
    """
    return hom_module(module, CanonicalModule.cyclic(module.modulus, module.modulus))


def dual_map(f: ModuleMap) -> ModuleMap:
    """Contravariant dual: precomposition with f on characters."""
    return precompose(f, CanonicalModule.cyclic(f.domain.modulus, f.domain.modulus))


def evaluation_map(module: CanonicalModule) -> ModuleMap:
    """The canonical map M -> M**, x -> (chi -> chi(x))."""
    d1 = dual_module(module)
    d2 = dual_module(d1.module)
    # values[p][j] = chi_p(u_j) for the p-th generator chi_p of M*
    values = [d1.entries(chi)[0] for chi in _generators(d1.module)]
    cols = [d2.coords([row]) for row in zip(*values)]
    return ModuleMap(module, d2.module, IntMatrix.from_columns(cols, d2.module.ngens))


# ---------------------------------------------------------------------------
# Tensor products


@dataclass(frozen=True)
class TensorModule:
    """left tensor right as a canonical module plus the pure-tensor map.

    Raw coordinate (p, j), at p * right.ngens + j, has order gcd(c_p, d_j)
    and carries the pure tensor of the p-th left generator with the j-th
    right generator.
    """

    left: CanonicalModule
    right: CanonicalModule
    module: CanonicalModule
    orders: tuple[int, ...]
    pres: Presentation

    @cached_property
    def _project_columns(self) -> list[Vec]:
        return self.pres.project.columns()

    def entries(self, element: Sequence[int]) -> list[list[int]]:
        """The raw table of ``element``: entry [p][j] is its (p, j) coordinate."""
        k = self.right.ngens
        raw = [sum(map(mul, row, element)) for row in self.pres.lift.entries]
        return [raw[p * k:(p + 1) * k] for p in range(self.left.ngens)]

    def pure(self, y: Sequence[int], m: Sequence[int]) -> Vec:
        """y (x) m: the project columns of its nonzero raw coordinates y_p m_j, summed."""
        k = len(m)
        if len(y) != self.left.ngens or k != self.right.ngens:
            raise InputError("element has wrong length")
        orders, cols = self.orders, self._project_columns
        img = [0] * len(self.module.invariants)
        for p, a in enumerate(y):
            if a:
                for idx, b in enumerate(m, p * k):
                    c = b and a * b % orders[idx]
                    if c:
                        img = [s + c * v for s, v in zip(img, cols[idx])]
        return tuple([v % e for v, e in zip(img, self.module.invariants)])


@lru_cache(maxsize=1024)
def tensor_modules(left: CanonicalModule, right: CanonicalModule) -> TensorModule:
    if left.modulus != right.modulus:
        raise InputError("tensor across different moduli")
    orders = tuple(gcd(c, d) for c in left.invariants for d in right.invariants)
    pres = normalize_presentation((), orders, left.modulus)
    return TensorModule(left, right, pres.module, orders, pres)


def tensor_pair_map(fl: ModuleMap, fr: ModuleMap) -> ModuleMap:
    """The induced map fl (x) fr between canonical tensor modules: raw
    coordinate (p, j) goes to the Kronecker product of column p of fl with
    column j of fr."""
    src = tensor_modules(fl.domain, fr.domain)
    dst = tensor_modules(fl.codomain, fr.codomain)
    cols = [[a * b for a in lcol for b in rcol]
            for lcol in fl.matrix.columns() for rcol in fr.matrix.columns()]
    mat = IntMatrix.from_columns(cols, len(dst.orders))
    return ModuleMap(src.module, dst.module, dst.pres.project @ mat @ src.pres.lift)


def tensor_map(left: CanonicalModule, f: ModuleMap) -> ModuleMap:
    """The induced map id_left (x) f between canonical tensor modules."""
    return tensor_pair_map(ModuleMap.identity(left), f)


# ---------------------------------------------------------------------------
# Short exact sequences


def exactness_failure(f: ModuleMap, g: ModuleMap) -> Optional[str]:
    """Why 0 -> dom f -> dom g -> cod g -> 0 fails to be exact, or None."""
    if f.codomain != g.domain:
        return "maps are not composable"
    if not (g @ f).is_zero_map():
        return "composite g o f is nonzero"
    if not f.is_injective():
        return "f is not injective"
    if not g.is_surjective():
        return "g is not surjective"
    if f.domain.cardinality * g.codomain.cardinality != f.codomain.cardinality:
        return "image of f is smaller than kernel of g"
    return None


def is_exact(f: ModuleMap, g: ModuleMap) -> bool:
    return exactness_failure(f, g) is None


@dataclass(frozen=True)
class ShortSequence:
    """A validated short exact sequence 0 -> left -> middle -> right -> 0."""

    left: CanonicalModule
    middle: CanonicalModule
    right: CanonicalModule
    f: ModuleMap
    g: ModuleMap

    def __post_init__(self):
        if (self.f.domain != self.left or self.f.codomain != self.middle
                or self.g.domain != self.middle or self.g.codomain != self.right):
            raise InputError("sequence maps do not match the stated modules")
        reason = exactness_failure(self.f, self.g)
        if reason is not None:
            raise InputError(f"not a short exact sequence: {reason}")

    @classmethod
    def from_maps(cls, f: ModuleMap, g: ModuleMap) -> "ShortSequence":
        return cls(f.domain, f.codomain, g.codomain, f, g)

    @property
    def modulus(self) -> int:
        return self.middle.modulus


def splitting_section(seq: ShortSequence) -> Optional[ModuleMap]:
    """A section s with g o s == id, or None when no section exists.

    Column j of s is solved on its own: it is sum_i c_i s_i e_i, with
    s_i = m_i/gcd(m_i, n_j) the step of Hom(Z/n_j, Z/m_i), and g must send
    it to e_j modulo the right invariants.
    """
    m_inv = seq.middle.invariants
    n_inv = seq.right.invariants
    cols = []
    for j, n_j in enumerate(n_inv):
        steps = [m // gcd(m, n_j) for m in m_inv]
        rows = [list(map(mul, row, steps)) for row in seq.g.matrix.entries]
        e_j = [int(k == j) for k in range(len(n_inv))]
        c = hermite_solve(hermite_system(rows, n_inv, len(m_inv)), e_j, n_inv)
        if c is None:
            return None
        cols.append(list(map(mul, c, steps)))
    s = ModuleMap(seq.right, seq.middle, IntMatrix.from_columns(cols, len(m_inv)))
    if (seq.g @ s) != ModuleMap.identity(seq.right):
        raise InternalCheckError("section verification failed")
    return s


# ---------------------------------------------------------------------------
# Direct sums


@dataclass(frozen=True)
class DirectSum:
    module: CanonicalModule
    inclusions: tuple[ModuleMap, ...]
    projections: tuple[ModuleMap, ...]


def direct_sum(parts: Sequence[CanonicalModule]) -> DirectSum:
    if not parts:
        raise InputError("direct sum of no modules")
    modulus = parts[0].modulus
    for p in parts:
        if p.modulus != modulus:
            raise InputError("direct sum across different moduli")
    orders = [d for p in parts for d in p.invariants]
    pres = normalize_presentation((), orders, modulus)
    total = pres.module
    n = len(orders)
    incls = []
    projs = []
    offset = 0
    for p in parts:
        k = p.ngens
        inc_mat = IntMatrix(total.ngens, k,
                            tuple(tuple(pres.project.entries[r][offset + j] for j in range(k))
                                  for r in range(total.ngens)))
        incls.append(ModuleMap(p, total, inc_mat))
        proj_mat = IntMatrix(k, total.ngens, tuple(pres.lift.entries[offset + j] for j in range(k)))
        projs.append(ModuleMap(total, p, proj_mat))
        offset += k
    assert offset == n
    return DirectSum(total, tuple(incls), tuple(projs))


# ---------------------------------------------------------------------------
# Random generation (deterministic per seed)


def divisors(n: int) -> list[int]:
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_powers(n: int) -> list[int]:
    """The Omega(n) prime powers p^j > 1 dividing n, in ascending order."""
    powers, p = [], 2
    while p * p <= n:
        q = p
        while n % p == 0:
            n //= p
            powers.append(q)
            q *= p
        p += 1
    if n > 1:
        powers.append(n)
    return sorted(powers)


def divisor_chains(n: int, depth: int) -> Iterator[list[tuple[int, ...]]]:
    """The chains d_1 | ... | d_k of divisors >= 2 of n, one lexicographic
    list per length k = 0, 1, ..., depth, each built when asked for; the
    lengths stop at the first one with no chain (n = 1 has only ())."""
    divs = [d for d in divisors(n) if d >= 2]
    level: list[tuple[int, ...]] = [()]
    yield level
    for _ in range(depth):
        level = [c + (d,) for c in level for d in divs if not c or d % c[-1] == 0]
        if not level:
            return
        yield level


def random_module(modulus: int, rng: random.Random, max_gens: int = 3) -> CanonicalModule:
    divs = [d for d in divisors(modulus) if d >= 2]
    if not divs:
        return CanonicalModule.zero(modulus)
    k = rng.randint(0, max_gens)
    chain: list[int] = []
    for _ in range(k):
        lower = chain[-1] if chain else None
        candidates = divs if lower is None else [d for d in divs if d % lower == 0]
        if not candidates:
            break
        chain.append(rng.choice(candidates))
    return CanonicalModule(modulus, tuple(chain))


def random_hom(domain: CanonicalModule, codomain: CanonicalModule,
               rng: random.Random) -> ModuleMap:
    rows = []
    for e in codomain.invariants:
        row = []
        for d in domain.invariants:
            g = gcd(d, e)
            row.append(rng.randrange(g) * (e // g))
        rows.append(row)
    return ModuleMap(domain, codomain, IntMatrix.from_rows(rows, cols=domain.ngens))


def random_ses(modulus: int, seed, max_gens: int = 3) -> ShortSequence:
    """A random short exact sequence, exact by construction.

    A random map q out of a random middle module is generated; the right
    term is the image of q with the corestriction as quotient map, and the
    left term is the kernel with its inclusion.
    """
    if modulus < 2:
        raise InputError("random sequences need modulus >= 2")
    rng = random.Random(f"ses:{modulus}:{seed}:{max_gens}")
    middle = random_module(modulus, rng, max_gens)
    target = random_module(modulus, rng, max_gens)
    return _sequence_through_image(random_hom(middle, target, rng))


@lru_cache(maxsize=1024)
def _sequence_through_image(q: ModuleMap) -> ShortSequence:
    """0 -> ker q -> dom q -> im q -> 0, cached per map: a seed that draws a
    map again pays only for its random choices.  Distinct maps may give
    equal sequences (20,000 draws at N=6 hold 5,188 maps and 1,897
    sequences), so the cache stays small."""
    middle = q.domain
    img = q.image()
    right = img.module
    cols = [img.coords(q.matrix.col(j)) for j in range(middle.ngens)]
    g_mat = IntMatrix.from_columns(cols, right.ngens)
    g = ModuleMap(middle, right, g_mat)
    ker = g.kernel()
    left = ker.module
    f = ker.inclusion_into(middle)
    return ShortSequence(left, middle, right, f, g)
