"""The functor-category engine over the index category of cyclic modules.

The index category D has one object per divisor d of N, standing for the
cyclic module Z/d.  Hom(Z/d, Z/e) is cyclic of order gcd(d, e) with canonical
generator g_{d,e}: 1 -> e/gcd(d, e); composites of canonical generators are
scalar multiples of canonical generators, so a single coefficient table
describes all of D.  Every finite Z/N-module is a direct sum of the cyclic
ones, so additive functors on D determine additive functors on all finite
modules; this is what makes the index finite.

``build_index_category`` builds D once per modulus: its coefficient table is
computed once and checked for associativity once.

An additive functor is stored by its values (canonical modules; D is
Z/N-linear, so values are automatically Z/N-modules) and by its action on
each canonical generator; identities, types, hom-group torsion and the
composition table are verified at construction, on integer matrices.
Actions move hom elements with ``finmod``'s ``precompose``, ``postcompose``
and ``_hom_push``, through the raw cyclic coordinates that
``HomModule.entries`` and ``HomModule.coords`` own, building no ModuleMap per
element.  Character duals are the hom groups Hom(-, Z/N) of
``finmod.dual_module``, so the duality checks build and read characters with
the same two calls.  Natural transformations solve one congruence system with
the modular Hermite kernel ``zmodlin.hermite_kernel``, whose entries never
exceed N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, Sequence

from .errors import InputError, InternalCheckError
from .finmod import (
    CanonicalModule,
    HomModule,
    ModuleMap,
    Presentation,
    Subgroup,
    _generators,
    _hom_push,
    divisors,
    dual_map,
    dual_module,
    hom_module,
    normalize_presentation,
    postcompose,
    precompose,
    quotient_by_subgroup,
    random_hom,
    random_module,
    tensor_modules,
    tensor_pair_map,
)
from .zmodlin import IntMatrix, Vec, hermite_kernel

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


def _coefficient(d: int, e: int, f: int) -> int:
    if f == 1:
        return 0
    composite = ((e // gcd(d, e)) * (f // gcd(e, f))) % f
    gdf = gcd(d, f)
    gen = f // gdf
    if composite % gen:
        raise InternalCheckError("composite not a multiple of the canonical generator")
    return (composite // gen) % gdf


@dataclass(frozen=True)
class IndexCategoryD:
    """Equal and hashed by (modulus, objects); comp_coeff reads a table built once."""

    modulus: int
    objects: tuple[int, ...]
    _coeffs: dict = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _gen_maps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        objs = self.objects
        object.__setattr__(self, "_coeffs", {(d, e, f): _coefficient(d, e, f)
                                             for d in objs for e in objs for f in objs})
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(objs)})
        object.__setattr__(self, "_gen_maps", {})

    def index_of(self, d: int) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise InputError(f"{d} is not an object (divisor of {self.modulus})")

    def cyclic(self, d: int) -> CanonicalModule:
        return CanonicalModule.cyclic(self.modulus, d)

    def hom_order(self, d: int, e: int) -> int:
        return gcd(d, e)

    def gen_image(self, d: int, e: int) -> int:
        """Image of 1 under the canonical generator g_{d,e}: Z/d -> Z/e."""
        return e // gcd(d, e)

    def gen_map(self, d: int, e: int) -> ModuleMap:
        """g_{d,e} as a map; built once per pair (at most d(N)^2 of them)."""
        m = self._gen_maps.get((d, e))
        if m is None:
            dom, cod = self.cyclic(d), self.cyclic(e)
            m = ModuleMap.zero(dom, cod) if dom.is_zero() or cod.is_zero() else \
                ModuleMap.from_rows(dom, cod, [[self.gen_image(d, e)]])
            self._gen_maps[d, e] = m
        return m

    def comp_coeff(self, d: int, e: int, f: int) -> int:
        """Coefficient c with g_{e,f} o g_{d,e} == c * g_{d,f} (c mod gcd(d, f))."""
        return self._coeffs[d, e, f]


@lru_cache(maxsize=16)
def build_index_category(modulus: int) -> IndexCategoryD:
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    cat = IndexCategoryD(modulus, tuple(divisors(modulus)))
    for d in cat.objects:
        if d > 1 and cat.comp_coeff(d, d, d) != 1:
            raise InternalCheckError("identity generator is not the identity")
    objs = cat.objects
    for d in objs:
        for e in objs:
            for f in objs:
                for h in objs:
                    lhs = cat.comp_coeff(d, e, f) * cat.comp_coeff(d, f, h)
                    rhs = cat.comp_coeff(e, f, h) * cat.comp_coeff(d, e, h)
                    if (lhs - rhs) % gcd(d, h):
                        raise InternalCheckError("composition table is not associative")
    return cat


@dataclass(frozen=True)
class FunctorOnD:
    """An additive functor on D, stored on objects and canonical generators.

    For a covariant functor ``action(d, e)`` is F(g_{d,e}): F(d) -> F(e);
    for a contravariant one it is F(g_{d,e}): F(e) -> F(d).
    """

    category: IndexCategoryD
    variance: str
    values: tuple[CanonicalModule, ...]
    actions: tuple[ModuleMap, ...]  # flattened (index d, index e)

    def __post_init__(self):
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise InputError("variance must be covariant or contravariant")
        nobj = len(self.category.objects)
        if len(self.values) != nobj or len(self.actions) != nobj * nobj:
            raise InputError("functor data has wrong shape")
        self._validate()

    def value(self, d: int) -> CanonicalModule:
        return self.values[self.category.index_of(d)]

    def action(self, d: int, e: int) -> ModuleMap:
        nobj = len(self.category.objects)
        return self.actions[self.category.index_of(d) * nobj + self.category.index_of(e)]

    def is_covariant(self) -> bool:
        return self.variance == COVARIANT

    def _validate(self):
        """Identities, types, hom-group torsion and the composition table, on
        the actions' normalised matrices (composites of well-defined maps are
        well defined, so no ModuleMap is built per triple)."""
        cat, cov = self.category, self.is_covariant()
        objs, n = cat.objects, len(cat.objects)
        for i, act in enumerate(self.actions[::n + 1]):
            v = self.values[i]
            if (act.domain != v or act.codomain != v
                    or act.matrix != IntMatrix.identity(v.ngens)):
                raise InputError("functor does not send identity generators to identities")
        for i, d in enumerate(objs):
            for j, e in enumerate(objs):
                act = self.actions[i * n + j]
                src, dst = (self.values[i], self.values[j]) if cov else \
                    (self.values[j], self.values[i])
                if act.domain != src or act.codomain != dst:
                    raise InputError("action has the wrong type for the variance")
                h = cat.hom_order(d, e)
                if any((h * v) % m for row, m in zip(act.matrix.entries, dst.invariants)
                       for v in row):
                    raise InputError("action violates hom-group torsion")
        rows = [a.matrix.entries for a in self.actions]
        cols = [a.matrix.columns() for a in self.actions]
        comp = cat.comp_coeff
        for i, d in enumerate(objs):
            for k, f in enumerate(objs):
                target = rows[i * n + k]
                if not target or not target[0]:
                    continue  # a map from or to zero
                mods = self.values[k if cov else i].invariants
                for j, e in enumerate(objs):
                    c = comp(d, e, f)
                    outer, inner = (rows[j * n + k], cols[i * n + j]) if cov else \
                        (rows[i * n + j], cols[j * n + k])
                    for row, trow, m in zip(outer, target, mods):
                        for col, t in zip(inner, trow):
                            if (sum(map(mul, row, col)) - c * t) % m:
                                raise InputError("functor violates the composition table")


def functor_from_values(cat: IndexCategoryD, variance: str,
                        value_of: Callable[[int], CanonicalModule],
                        action_of: Callable[[int, int], ModuleMap]) -> FunctorOnD:
    values = tuple(value_of(d) for d in cat.objects)
    actions = tuple(action_of(d, e) for d in cat.objects for e in cat.objects)
    return FunctorOnD(cat, variance, values, actions)


# ---------------------------------------------------------------------------
# Representables and module-induced functors


@lru_cache(maxsize=256)
def representable_cov(cat: IndexCategoryD, a: int) -> FunctorOnD:
    """The covariant representable D(a, -): d -> Hom(Z/a, Z/d)."""
    cat.index_of(a)

    def value_of(d):
        return CanonicalModule.cyclic(cat.modulus, cat.hom_order(a, d))

    def action_of(d, e):
        dom, cod = value_of(d), value_of(e)
        if dom.is_zero() or cod.is_zero():
            return ModuleMap.zero(dom, cod)
        return ModuleMap.from_rows(dom, cod, [[cat.comp_coeff(a, d, e)]])

    return functor_from_values(cat, COVARIANT, value_of, action_of)


@lru_cache(maxsize=256)
def restrict_module(cat: IndexCategoryD, c: CanonicalModule) -> FunctorOnD:
    """The contravariant functor d -> Hom(Z/d, c) restricted to D."""
    if c.modulus != cat.modulus:
        raise InputError("module modulus does not match the category")

    def value_of(d):
        return hom_module(cat.cyclic(d), c).module

    def action_of(d, e):
        # Hom(Z/e, c) -> Hom(Z/d, c), h -> h o g_{d,e}
        return precompose(cat.gen_map(d, e), c)

    return functor_from_values(cat, CONTRAVARIANT, value_of, action_of)


@lru_cache(maxsize=256)
def tensor_functor(cat: IndexCategoryD, y: CanonicalModule) -> FunctorOnD:
    """The covariant functor d -> y (x) Z/d."""
    if y.modulus != cat.modulus:
        raise InputError("module modulus does not match the category")

    def value_of(d):
        return tensor_modules(y, cat.cyclic(d)).module

    id_y = ModuleMap.identity(y)

    def action_of(d, e):
        return tensor_pair_map(id_y, cat.gen_map(d, e))

    return functor_from_values(cat, COVARIANT, value_of, action_of)


def dual_functor(F: FunctorOnD) -> FunctorOnD:
    """Objectwise character dual; reverses variance."""
    variance = CONTRAVARIANT if F.is_covariant() else COVARIANT
    return functor_from_values(
        F.category, variance,
        lambda d: dual_module(F.value(d)).module,
        lambda d, e: dual_map(F.action(d, e)))


# ---------------------------------------------------------------------------
# Finitely presented functors: cokernels of maps of representables


@dataclass(frozen=True)
class FpValue:
    """Value of the fp functor attached to u at one module, with cokernel data."""

    module: CanonicalModule
    proj: ModuleMap      # from the hom group onto the value
    lift: IntMatrix      # integer section of proj
    hom: HomModule       # realization of the hom group being quotiented


@lru_cache(maxsize=4096)
def fp_value(u: ModuleMap, c: CanonicalModule, variance: str = COVARIANT) -> FpValue:
    """coker(Hom(a, c) -> Hom(b, c)) for u: b -> a (covariant), or
    coker(Hom(c, b) -> Hom(c, a)) (contravariant)."""
    if variance == COVARIANT:
        induced = precompose(u, c)
        hom = hom_module(u.domain, c)
    else:
        induced = postcompose(u, c)
        hom = hom_module(c, u.codomain)
    module, proj, lift = quotient_by_subgroup(induced.codomain, induced.image())
    return FpValue(module, proj, lift, hom)


def eval_fp_functor(u: ModuleMap, c: CanonicalModule,
                    variance: str = COVARIANT) -> CanonicalModule:
    return fp_value(u, c, variance).module


def _fp_action(src: FpValue, dst: FpValue, f: ModuleMap, variance: str) -> ModuleMap:
    """The map src -> dst that f induces on two values of one fp functor."""
    side = {"left" if variance == COVARIANT else "right": f.matrix}
    cols = _hom_push(src.hom, dst.hom, src.lift.columns(), proj=dst.proj, **side)
    return ModuleMap(src.module, dst.module, IntMatrix.from_columns(cols, dst.module.ngens))


def fp_induced(u: ModuleMap, f: ModuleMap, variance: str = COVARIANT) -> ModuleMap:
    """F_u(dom f) -> F_u(cod f) (reversed for the contravariant functor)."""
    src, dst = f.domain, f.codomain
    if variance != COVARIANT:
        src, dst = dst, src
    return _fp_action(fp_value(u, src, variance), fp_value(u, dst, variance), f, variance)


def fp_functor_from_map(u: ModuleMap, cat: IndexCategoryD,
                        variance: str = COVARIANT) -> FunctorOnD:
    """The finitely presented functor presented by u, as a functor on D."""
    if u.domain.modulus != cat.modulus:
        raise InputError("map modulus does not match the category")
    vals = {d: fp_value(u, cat.cyclic(d), variance) for d in cat.objects}

    def action_of(d, e):
        src, dst = (d, e) if variance == COVARIANT else (e, d)
        return _fp_action(vals[src], vals[dst], cat.gen_map(d, e), variance)

    return functor_from_values(cat, variance, lambda d: vals[d].module, action_of)


# ---------------------------------------------------------------------------
# Coend tensor product


@dataclass(frozen=True)
class CoendResult:
    """Coend of G and F over D: quotient of the objectwise tensor products by
    the relations identifying the two actions of every canonical generator."""

    group: CanonicalModule
    injections: tuple[ModuleMap, ...]
    offsets: tuple[int, ...] = field(repr=False)
    orders: tuple[int, ...] = field(repr=False)
    pres: Presentation = field(repr=False)


def coend_tensor(G: FunctorOnD, F: FunctorOnD) -> CoendResult:
    if G.category != F.category:
        raise InputError("coend across different index categories")
    if G.is_covariant() or not F.is_covariant():
        raise InputError("coend needs a contravariant left and a covariant right functor")
    cat = G.category
    tensors = [tensor_modules(G.value(d), F.value(d)) for d in cat.objects]
    offsets = []
    orders: list[int] = []
    for t in tensors:
        offsets.append(len(orders))
        orders.extend(t.module.invariants)
    total = len(orders)

    # The relation of (x in G(e), y in F(d)) is G(g_{d,e})x (x) y at d minus
    # x (x) F(g_{d,e})y at e.
    n = len(cat.objects)
    g_gens = [_generators(v) for v in G.values]
    f_gens = [_generators(v) for v in F.values]
    rel_cols: list[list[int]] = []
    for i_d in range(n):
        fd, off_d = F.values[i_d], offsets[i_d]
        for i_e in range(n):
            ge, off_e = G.values[i_e], offsets[i_e]
            if i_d == i_e or ge.is_zero() or fd.is_zero():
                continue
            g_cols = G.actions[i_d * n + i_e].matrix.columns()     # G(e) -> G(d)
            f_cols = F.actions[i_d * n + i_e].matrix.columns()     # F(d) -> F(e)
            for x, gx in enumerate(g_cols):
                for y, fy in enumerate(f_cols):
                    left = tensors[i_d].pure(gx, f_gens[i_d][y])
                    right = tensors[i_e].pure(g_gens[i_e][x], fy)
                    if any(left) or any(right):
                        col = [0] * total
                        col[off_d:off_d + len(left)] = left
                        col[off_e:off_e + len(right)] = [-v for v in right]
                        rel_cols.append(col)
    for i, o in enumerate(orders):
        col = [0] * total
        col[i] = o
        rel_cols.append(col)
    rel = IntMatrix(total, len(rel_cols), tuple(zip(*rel_cols)))
    pres = normalize_presentation(rel, cat.modulus)
    injections = []
    for i_d, t in enumerate(tensors):
        k = t.module.ngens
        mat = IntMatrix(pres.module.ngens, k,
                        tuple(tuple(pres.project.entries[r][offsets[i_d] + j] for j in range(k))
                              for r in range(pres.module.ngens)))
        injections.append(ModuleMap(t.module, pres.module, mat))
    return CoendResult(pres.module, tuple(injections), tuple(offsets), tuple(orders), pres)


def kan_eval(F: FunctorOnD, c: CanonicalModule) -> CanonicalModule:
    """Extension of F to an arbitrary finite module c via the coend formula."""
    return coend_tensor(restrict_module(F.category, c), F).group


def _hom_scalar(hom: HomModule, gen_image: int, element: Sequence[int]) -> int:
    """Express an element of a cyclic hom group as r times the canonical
    generator (whose matrix entry is gen_image); returns r."""
    entries = hom.entries(element)
    if not entries or not entries[0]:
        return 0
    entry = entries[0][0]
    if entry % gen_image:
        raise InternalCheckError("hom element outside the cyclic carrier")
    return entry // gen_image


def coend_evaluation_map(F: FunctorOnD, a: int) -> tuple[CoendResult, ModuleMap]:
    """The canonical evaluation map coend(D(-, Z/a), F) -> F(a).

    On the slice at object d it sends h tensor y to F(h)(y).  The assembled
    ambient map is verified to kill every coend relation before being pushed
    to the canonical quotient.
    """
    cat = F.category
    if not F.is_covariant():
        raise InputError("evaluation map needs a covariant functor")
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
        for col_i, gen in enumerate(_generators(t.module)):
            # gen = sum c_pq h_p (x) y_q with h_p = scalars[p] g_{d,a}, so it
            # goes to F(g_{d,a}) applied to sum_q (sum_p scalars[p] c_pq) y_q
            ys = [sum(map(mul, scalars, col)) for col in zip(*t.entries(gen))]
            for r, v in enumerate(act.matrix.apply(ys)):
                W[r][coend.offsets[i_d] + col_i] += v
    Wm = IntMatrix.from_rows(W, cols=total)
    final = Wm @ coend.pres.lift
    return coend, ModuleMap(coend.group, fa, final)


# ---------------------------------------------------------------------------
# Natural transformations


@dataclass(frozen=True)
class NatModule:
    """The group of natural transformations F -> H with realization data."""

    source: FunctorOnD
    target: FunctorOnD
    module: CanonicalModule
    subgroup: Subgroup
    homs: tuple[HomModule, ...]
    offsets: tuple[int, ...]

    def to_family(self, element: Sequence[int]) -> tuple[ModuleMap, ...]:
        amb = self.subgroup.element(element)
        fams = []
        for i, h in enumerate(self.homs):
            start = self.offsets[i]
            fams.append(h.to_map(amb[start:start + h.module.ngens]))
        return tuple(fams)

    def from_family(self, maps: Sequence[ModuleMap]) -> Vec:
        amb: list[int] = []
        for h, m in zip(self.homs, maps):
            amb.extend(h.from_map(m))
        return self.subgroup.coords(amb)


def nat_transformations(F: FunctorOnD, H: FunctorOnD) -> NatModule:
    """All families (alpha_d) commuting with every generator action, found by
    solving one linear congruence system over the hom-group coordinates.

    Its entries stay at most lcm(moduli) | N; only counts and bijectivity of
    Nat reach the output, so, unlike ModuleMap.kernel's, their order is free."""
    if F.category != H.category or F.variance != H.variance:
        raise InputError("natural transformations need same category and variance")
    cat = F.category
    homs = tuple(hom_module(F.value(d), H.value(d)) for d in cat.objects)
    offsets = []
    orders: list[int] = []
    for h in homs:
        offsets.append(len(orders))
        orders.extend(h.module.invariants)
    total = len(orders)

    gen_mats = [[h.to_map(g).matrix for g in _generators(h.module)] for h in homs]

    def product(a: IntMatrix, b: IntMatrix, mods, sign: int) -> list[list[int]]:
        """sign * a @ b, each row reduced mod its modulus as ModuleMap does."""
        b_cols = b.columns()
        return [[(sign * sum(map(mul, row, col))) % m for col in b_cols]
                for row, m in zip(a.entries, mods)]

    rows: list[list[int]] = []
    moduli: list[int] = []
    cov = F.is_covariant()
    n = len(cat.objects)
    for i_d in range(n):
        for i_e in range(n):
            if i_d == i_e:
                continue
            f_act = F.actions[i_d * n + i_e].matrix
            h_act = H.actions[i_d * n + i_e].matrix
            # naturality against g_{d,e} is an equation in Hom(dom_val, cod_val)
            if cov:
                dom_val, cod_val = F.values[i_d], H.values[i_e]
                i_first, i_second = i_d, i_e
            else:
                dom_val, cod_val = F.values[i_e], H.values[i_d]
                i_first, i_second = i_e, i_d
            if dom_val.is_zero() or cod_val.is_zero():
                continue
            mods = cod_val.invariants
            contrib: dict[int, list[list[int]]] = {}
            for j, gm in enumerate(gen_mats[i_first]):
                contrib[offsets[i_first] + j] = product(h_act, gm, mods, 1)
            for j, gm in enumerate(gen_mats[i_second]):
                contrib[offsets[i_second] + j] = product(gm, f_act, mods, -1)
            for r in range(cod_val.ngens):
                for c in range(dom_val.ngens):
                    row = [0] * total
                    nonzero = False
                    for key, mp in contrib.items():
                        v = mp[r][c]
                        if v:
                            row[key] = v
                            nonzero = True
                    if nonzero:
                        rows.append(row)
                        moduli.append(mods[r])
    gens = hermite_kernel(rows, moduli, total)
    sub = Subgroup(tuple(orders), cat.modulus, tuple(gens))
    return NatModule(F, H, sub.module, sub, homs, tuple(offsets))


# ---------------------------------------------------------------------------
# Duality isomorphism checks


def hom_tensor_duality_map(G: FunctorOnD, F: FunctorOnD) -> tuple[ModuleMap, NatModule]:
    """The canonical map (G (x) F)* -> Nat(F, G*).

    A character chi of the coend goes to the transformation whose component
    at d sends y in F(d) to the character x -> chi(inj_d(x (x) y)) of G(d).
    """
    coend = coend_tensor(G, F)
    c_star = dual_module(coend.group)
    nat = nat_transformations(F, dual_functor(G))
    duals = [dual_module(gd) for gd in G.values]
    # images[i_d][q][p] = inj_d(pure(p-th generator of G(d), q-th of F(d)))
    images = []
    for gd, fd, inj in zip(G.values, F.values, coend.injections):
        tmod = tensor_modules(gd, fd)
        images.append([[inj.apply(tmod.pure(x, y)) for x in _generators(gd)]
                       for y in _generators(fd)])
    cols = []
    for chi in _generators(c_star.module):
        (values,) = c_star.entries(chi)
        fams = []
        for fd, dual, zs in zip(F.values, duals, images):
            ys = [dual.coords([[sum(map(mul, values, z)) for z in zq]]) for zq in zs]
            fams.append(ModuleMap(fd, dual.module, IntMatrix.from_columns(ys, dual.module.ngens)))
        cols.append(nat.from_family(fams))
    mat = IntMatrix.from_columns(cols, nat.module.ngens)
    return ModuleMap(c_star.module, nat.module, mat), nat


def hom_tensor_duality_check(G: FunctorOnD, F: FunctorOnD) -> bool:
    themap, _ = hom_tensor_duality_map(G, F)
    return themap.is_bijective()


def dual_of_hom_check(x: CanonicalModule, cat: IndexCategoryD) -> bool:
    """Whether x* (x) Z/d and Hom(Z/d, x)* agree at every object d of D,
    via the canonical pairing (chi tensor t)(h) = chi(h(t))."""
    xd = dual_module(x)
    for d in cat.objects:
        cyc = cat.cyclic(d)
        t = tensor_modules(xd.module, cyc)
        h = hom_module(cyc, x)
        hd = dual_module(h.module)
        # image of 1 under the w-th generator of Hom(Z/d, x)
        himgs = [[row[0] for row in h.entries(w)] for w in _generators(h.module)]
        cols = []
        for gen in _generators(t.module):
            # the character chi with chi (x) 1 this generator of x* (x) Z/d
            (chi,) = xd.entries([row[0] for row in t.entries(gen)])
            cols.append(hd.coords([[sum(map(mul, chi, himg)) for himg in himgs]]))
        mat = IntMatrix.from_columns(cols, hd.module.ngens)
        themap = ModuleMap(t.module, hd.module, mat)
        if not themap.is_bijective():
            return False
    return True


# ---------------------------------------------------------------------------
# Random functors (cokernels of random maps between sums of representables)


def random_functor(cat: IndexCategoryD, rng: random.Random, max_gens: int = 2,
                   variance: str = COVARIANT) -> FunctorOnD:
    b = random_module(cat.modulus, rng, max_gens)
    a = random_module(cat.modulus, rng, max_gens)
    u = random_hom(b, a, rng)
    return fp_functor_from_map(u, cat, variance)


def random_contra_functor(cat: IndexCategoryD, rng: random.Random,
                          max_gens: int = 2) -> FunctorOnD:
    kind = rng.randrange(3)
    if kind == 0:
        return restrict_module(cat, random_module(cat.modulus, rng, max_gens))
    if kind == 1:
        return dual_functor(random_functor(cat, rng, max_gens, COVARIANT))
    return random_functor(cat, rng, max_gens, CONTRAVARIANT)
