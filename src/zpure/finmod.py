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
    column_echelon,
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

    def zero_element(self) -> Vec:
        return (0,) * self.ngens

    def add(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariants))

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
    """A module presented as coordinates mod ``orders`` divided by relations.

    ``project`` maps ambient coordinate columns onto canonical coordinates;
    ``lift`` is an exact integer section: project @ lift == identity.
    """

    module: CanonicalModule
    project: IntMatrix
    lift: IntMatrix


def normalize_presentation(relations: IntMatrix, modulus: int) -> Presentation:
    """Canonical form of Z^rows / (column lattice of relations + modulus*Z^rows).

    The cokernel is computed over Z/modulus, i.e. the columns of
    ``modulus * I`` are always implied relations.
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    g = relations.rows
    if g == 0:
        return Presentation(CanonicalModule.zero(modulus),
                            IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
    cols = relations.columns()
    cols.extend(tuple(modulus if i == j else 0 for i in range(g)) for j in range(g))
    reduced = column_echelon(cols, g, modulus)
    rel_rows = [[c[i] for c in reduced] for i in range(g)]
    U, Uinv, diag = snf_left_transforms(rel_rows, g, len(reduced))
    keep = []
    invariants = []
    for i in range(g):
        s = diag[i] if i < len(diag) else 0
        if s == 0 or modulus % s:
            raise InternalCheckError("presentation invariant factor does not divide modulus")
        if s > 1:
            keep.append(i)
            invariants.append(s)
    module = CanonicalModule(modulus, tuple(invariants))
    project = IntMatrix(len(keep), g, tuple(tuple(U[i]) for i in keep))
    lift = IntMatrix(g, len(keep),
                     tuple(tuple(Uinv[r][i] % modulus for i in keep) for r in range(g)))
    return Presentation(module, project, lift)


def canonical_from_cyclic_orders(orders: Sequence[int], modulus: int) -> Presentation:
    """Canonical form of a direct sum of cyclic groups Z/order (orders | modulus)."""
    return normalize_presentation(IntMatrix.diagonal(list(orders)), modulus)


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

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise InputError("sum of maps with different types")
        return ModuleMap(self.domain, self.codomain,
                         IntMatrix(self.matrix.rows, self.matrix.cols,
                                   tuple(tuple(a + b for a, b in zip(r1, r2))
                                         for r1, r2 in zip(self.matrix.entries, other.matrix.entries))))

    def __neg__(self) -> "ModuleMap":
        return self.scale(-1)

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

    def cokernel(self) -> tuple[CanonicalModule, "ModuleMap", IntMatrix]:
        """Quotient of the codomain by the image: (module, projection, section)."""
        return quotient_by_subgroup(self.codomain, self.image())


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
        reduced = tuple(tuple(v % o for v, o in zip(g, self.ambient_orders)) for g in self.gens)
        for g in reduced:
            if len(g) != len(self.ambient_orders):
                raise InputError("subgroup generator has wrong length")
        object.__setattr__(self, "gens", tuple(g for g in reduced if any(g)))

    @cached_property
    def _gen_matrix(self) -> IntMatrix:
        n = len(self.ambient_orders)
        r = len(self.gens)
        return IntMatrix(n, r, tuple(tuple(self.gens[t][i] for t in range(r)) for i in range(n)))

    @cached_property
    def _system(self) -> tuple[Vec, ...]:
        """Hermite key of gens*c == x (mod ambient_orders), for ``coords``."""
        return hermite_system(self._gen_matrix.entries, self.ambient_orders, len(self.gens))

    @cached_property
    def presentation(self) -> Presentation:
        r = len(self.gens)
        if r == 0:
            return Presentation(CanonicalModule.zero(self.modulus),
                                IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
        relations = kernel_mod(self._gen_matrix, self.ambient_orders)
        rel = IntMatrix(r, len(relations),
                        tuple(tuple(c[i] for c in relations) for i in range(r)))
        return normalize_presentation(rel, self.modulus)

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
        return not any(hermite_reduce(x, self.key))

    def coords(self, x: Sequence[int]) -> Vec:
        """Coordinates of x in the canonical form of the subgroup."""
        if len(self.gens) == 0:
            if not self.contains(x):
                raise InputError("element not in subgroup")
            return ()
        sol = hermite_solve(self._system, x, self.ambient_orders)
        if sol is None:
            raise InputError("element not in subgroup")
        return self.module.reduce(self.presentation.project.apply(sol))

    def element(self, coords: Sequence[int]) -> Vec:
        """Ambient vector realizing canonical coordinates."""
        if not self.gens:
            return tuple(0 for _ in self.ambient_orders)
        c = self.presentation.lift.apply(coords)
        vec = self._gen_matrix.apply(c)
        return tuple(v % o for v, o in zip(vec, self.ambient_orders))

    def elements(self) -> Iterator[Vec]:
        for c in self.module.elements():
            yield self.element(c)

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
    n = ambient.ngens
    cols = list(sub.gens) + [tuple(d if i == j else 0 for i in range(n))
                             for j, d in enumerate(ambient.invariants)]
    rel = IntMatrix(n, len(cols), tuple(tuple(c[i] for c in cols) for i in range(n)))
    pres = normalize_presentation(rel, ambient.modulus)
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
    pres = canonical_from_cyclic_orders(orders, source.modulus)
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
    pres = canonical_from_cyclic_orders(orders, left.modulus)
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
    """A section s with g o s == id, or None when no section exists."""
    m_inv = seq.middle.invariants
    n_inv = seq.right.invariants
    n_m, n_n = len(m_inv), len(n_inv)
    if n_n == 0:
        return ModuleMap.zero(seq.right, seq.middle)
    # unknowns: cyclic hom coordinates c_(i,j) of s, entry a_ij = c_ij*(m_i/gcd)
    unknowns = [(i, j) for i in range(n_m) for j in range(n_n)]
    steps = {(i, j): m_inv[i] // gcd(m_inv[i], n_inv[j]) for i, j in unknowns}
    rows = []
    rhs = []
    moduli = []
    G = seq.g.matrix
    for k in range(n_n):
        for j in range(n_n):
            row = []
            for (i, jj) in unknowns:
                row.append(G.entries[k][i] * steps[(i, jj)] if jj == j else 0)
            rows.append(row)
            rhs.append(1 if k == j else 0)
            moduli.append(n_inv[k])
    c = hermite_solve(hermite_system(rows, moduli, len(unknowns)), rhs, moduli)
    if c is None:
        return None
    mat_rows = [[0] * n_n for _ in range(n_m)]
    for idx, (i, j) in enumerate(unknowns):
        mat_rows[i][j] = c[idx] * steps[(i, j)]
    s = ModuleMap(seq.right, seq.middle, IntMatrix.from_rows(mat_rows, cols=n_n))
    if (seq.g @ s) != ModuleMap.identity(seq.right):
        raise InternalCheckError("section verification failed")
    return s


def is_split(seq: ShortSequence) -> bool:
    return splitting_section(seq) is not None


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
    pres = canonical_from_cyclic_orders(orders, modulus)
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


def direct_sum_maps(maps: Sequence[ModuleMap], dom_sum: DirectSum, cod_sum: DirectSum) -> ModuleMap:
    """Block-diagonal map between direct sums realized in canonical form."""
    total = None
    for f, inc, prj in zip(maps, cod_sum.inclusions, dom_sum.projections):
        piece = inc @ f @ prj
        total = piece if total is None else total + piece
    assert total is not None
    return total


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
