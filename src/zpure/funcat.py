"""The functor-category engine over the index category of cyclic modules.

The index category D has one object per divisor d of N, standing for the
cyclic module Z/d.  Hom(Z/d, Z/e) is cyclic of order gcd(d, e) with canonical
generator g_{d,e}: 1 -> e/gcd(d, e).  Every finite Z/N-module is a direct sum
of the cyclic ones, so additive functors on D determine additive functors on
all finite modules; this is what makes the index finite.

D is generated by its prime steps, the g_{d,e} with e = d*p or d = e*p for a
prime p (``IndexCategoryD.prime_steps``; 20 of 64 pairs at N=24, 232 of 2,304
at N=2520): g_{d,f} is the composite of the steps along the chain
d -> gcd(d, f) -> f, with coefficient 1.  An additive functor is stored by
its values (canonical modules; D is Z/N-linear, so values are automatically
Z/N-modules) and by its actions on the prime steps only.  It is validated on
the relations that present D through those steps (``FunctorOnD._validate``),
on integer matrices, and ``FunctorOnD.action`` composes any other action
along the chain on first use.  Coends impose their relations, and Nat systems
their naturality equations, along the prime steps only.  The relation and
solution lattices are those of all pairs, and both are read through
canonical forms, so the results are too.

Actions move hom elements with ``finmod``'s ``precompose``, ``postcompose``
and ``_hom_push``, through the raw cyclic coordinates that
``HomModule.entries`` and ``HomModule.coords`` own, building no ModuleMap per
element.  Character duals are the hom groups Hom(-, Z/N) of
``finmod.dual_module``, so the duality checks build and read characters with
the same two calls.  Natural transformations solve one congruence system with
the modular Hermite kernel ``zmodlin.hermite_kernel``, whose entries never
exceed N.

The lemma suites draw the same functors again and again, so functors and
coends are memoized by the data that presents them, each memo bounded by
count: ``fp_functor_from_map`` by (u, D, variance), defaults filled in (128),
``dual_functor`` by its functor (128) and ``coend_tensor`` by its pair (512),
next to ``restrict_module`` and ``tensor_functor`` (256 each).  A memoized
functor keeps the composite actions it has built, up to d(N)^2 maps.
``fp_value`` keeps no cache: ``fp_functor_from_map`` asks it once per object.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
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
    prime_powers,
    quotient_by_subgroup,
    random_hom,
    random_module,
    tensor_modules,
    tensor_pair_map,
)
from .zmodlin import IntMatrix, Vec, hermite_kernel

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


def _memo(maxsize: int):
    """``lru_cache(maxsize)`` keyed on the arguments bound to the signature,
    defaults filled in, so that f(u, cat) and f(u, cat, COVARIANT) share one
    entry; ``cache_info``, ``cache_clear`` and ``cache_parameters`` are the
    cache's, and ``__wrapped__`` is the function."""
    def decorate(fn):
        cached = lru_cache(maxsize)(fn)
        signature = inspect.signature(fn)

        @wraps(fn)
        def memo(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return cached(*bound.args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        memo.cache_parameters = cached.cache_parameters
        return memo
    return decorate


@dataclass(frozen=True)
class IndexCategoryD:
    """Equal and hashed by (modulus, objects).

    ``prime_steps`` lists the index pairs (i, j) whose objects differ by one
    prime factor, in both directions: the directed Hasse edges of the divisors.
    The relations among them, by step number k into ``prime_steps``:
    ``round_trips`` holds (i, k, k_back, p) for the path i -> j -> i, which
    is p times the identity of i; ``squares`` holds (x, y, k1, k2, k3, k4)
    for the paths k1 then k2 and k3 then k4 from x to y, opposite corners of
    a square d, dp, dq, dpq, which are equal.
    """

    modulus: int
    objects: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _gen_maps: dict = field(init=False, repr=False, compare=False)
    prime_steps: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    round_trips: tuple = field(init=False, repr=False, compare=False)
    squares: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        objs = self.objects
        index = {d: i for i, d in enumerate(objs)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_gen_maps", {})
        # the primes: the prime powers of the modulus that no smaller one divides
        powers = prime_powers(self.modulus)
        primes = [p for p in powers if all(p % q for q in powers if q < p)]
        steps = set()
        for d in objs:
            for p in primes:
                if d * p in index:
                    steps.update(((index[d], index[d * p]), (index[d * p], index[d])))
        steps = tuple(sorted(steps))
        number = {pair: k for k, pair in enumerate(steps)}
        round_trips = tuple((i, k, number[j, i], max(objs[i], objs[j]) // min(objs[i], objs[j]))
                            for k, (i, j) in enumerate(steps))
        squares = []
        for d in objs:
            for a, p in enumerate(primes):
                for q in primes[a + 1:]:
                    if d * p * q in index:
                        b, bp, bq, bpq = index[d], index[d * p], index[d * q], index[d * p * q]
                        for x, y, m1, m2 in ((b, bpq, bp, bq), (bpq, b, bp, bq),
                                             (bp, bq, b, bpq), (bq, bp, b, bpq)):
                            squares.append((x, y, number[x, m1], number[m1, y],
                                            number[x, m2], number[m2, y]))
        object.__setattr__(self, "prime_steps", steps)
        object.__setattr__(self, "round_trips", round_trips)
        object.__setattr__(self, "squares", tuple(squares))

    def index_of(self, d: int) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise InputError(f"{d} is not an object (divisor of {self.modulus})")

    def cyclic(self, d: int) -> CanonicalModule:
        return CanonicalModule.cyclic(self.modulus, d)

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


@lru_cache(maxsize=16)
def build_index_category(modulus: int) -> IndexCategoryD:
    """D for one modulus, built once.

    No composition table is kept or checked.  A composite g_{e,f} o g_{d,e}
    is a multiple c * g_{d,f} of the generator, c read off two explicit maps
    of cyclic modules; such coefficients are associative because composing
    maps is: both ways of bracketing g_{f,h} o g_{e,f} o g_{d,e} are one map,
    and g_{d,h} has order gcd(d, h).
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    return IndexCategoryD(modulus, tuple(divisors(modulus)))


@dataclass(frozen=True)
class FunctorOnD:
    """An additive functor on D, stored on objects and prime steps.

    ``steps[k]`` is F(g_{d,e}) for the k-th pair of ``category.prime_steps``.
    For a covariant functor ``action(d, e)`` is F(g_{d,e}): F(d) -> F(e);
    for a contravariant one it is F(g_{d,e}): F(e) -> F(d).

    Equal by the compared fields, and hashed by them once, at construction:
    a functor is the key of the ``dual_functor`` and ``coend_tensor`` memos.
    """

    category: IndexCategoryD
    variance: str
    values: tuple[CanonicalModule, ...]
    steps: tuple[ModuleMap, ...]
    _actions: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise InputError("variance must be covariant or contravariant")
        cat = self.category
        if len(self.values) != len(cat.objects) or len(self.steps) != len(cat.prime_steps):
            raise InputError("functor data has wrong shape")
        self._validate()
        object.__setattr__(self, "_actions", dict(zip(cat.prime_steps, self.steps)))
        object.__setattr__(self, "_hash", hash((cat, self.variance, self.values, self.steps)))

    def __hash__(self) -> int:
        return self._hash

    def value(self, d: int) -> CanonicalModule:
        return self.values[self.category.index_of(d)]

    def action(self, d: int, e: int) -> ModuleMap:
        """F(g_{d,e}): the identity when d == e, a stored step, or else the
        composite of the actions along d -> gcd(d, e) -> e, one prime at a
        time, kept once built (at most d(N)^2 maps).  That chain composes to
        g_{d,e} with coefficient 1: its steps down send 1 to 1, and its
        steps up compose to 1 -> e/gcd(d, e)."""
        cat = self.category
        i, j = cat.index_of(d), cat.index_of(e)
        act = self._actions.get((i, j))
        if act is None:
            if i == j:
                act = ModuleMap.identity(self.values[i])
            else:
                g = gcd(d, e)
                rest = d // g if d != g else e // d
                p = next(q for q in cat.objects[1:] if rest % q == 0)
                mid = d // p if d != g else d * p
                first, then = self.action(d, mid), self.action(mid, e)
                act = then @ first if self.is_covariant() else first @ then
            self._actions[i, j] = act
        return act

    def is_covariant(self) -> bool:
        return self.variance == COVARIANT

    def _validate(self):
        """Hom-group torsion, the steps' types and the relations of the prime
        steps, on the steps' integer matrices reduced modulo their targets.

        The relations present D.  Let P be the Z-linear category on the
        divisors generated by the prime steps, with d * id_d = 0, the round
        trips d -> dp -> d and dp -> d -> dp equal to p * id, and the two paths
        between opposite corners of each square d, dp, dq, dpq (p != q) equal.
        They hold in D, so P maps to D, the chain d -> gcd(d, e) -> e to
        g_{d,e}.  The squares move steps down before steps up and sort the
        primes; the round trips cancel a step up and down by one prime at a
        scalar.  So every path from d to e is c times the chain, whose order
        divides d and e as d * id_d = 0 = e * id_e: P(d, e) -> D(d, e) is onto
        a group of order gcd(d, e) from one no larger, so P is D.  In F,
        d * id_d = 0 says every invariant of F(d) divides d; it implies the
        hom-group torsion of every step.
        """
        cat, cov = self.category, self.is_covariant()
        values = self.values
        for d, v in zip(cat.objects, values):
            if any(d % m for m in v.invariants):
                raise InputError("action violates hom-group torsion")
        for (i, j), act in zip(cat.prime_steps, self.steps):
            src, dst = (values[i], values[j]) if cov else (values[j], values[i])
            if act.domain != src or act.codomain != dst:
                raise InputError("action has the wrong type for the variance")
        rows = [a.matrix.entries for a in self.steps]
        cols = [a.matrix.columns() for a in self.steps]

        def path(k1: int, k2: int) -> list[list[int]]:
            """F of step k1 followed by step k2, unreduced."""
            outer, inner = (rows[k2], cols[k1]) if cov else (rows[k1], cols[k2])
            return [[sum(map(mul, row, col)) for col in inner] for row in outer]

        def agree(lhs, rhs, target: CanonicalModule):
            """lhs == rhs as maps into target: entrywise modulo its invariants."""
            if any((a - b) % m for lrow, rrow, m in zip(lhs, rhs, target.invariants)
                   for a, b in zip(lrow, rrow)):
                raise InputError("functor violates the composition table")

        for i, k, k_back, p in cat.round_trips:
            n = values[i].ngens
            agree(path(k, k_back), [[p * (r == c) for c in range(n)] for r in range(n)], values[i])
        for x, y, k1, k2, k3, k4 in cat.squares:
            agree(path(k1, k2), path(k3, k4), values[y if cov else x])


def functor_from_values(cat: IndexCategoryD, variance: str,
                        value_of: Callable[[int], CanonicalModule],
                        action_of: Callable[[int, int], ModuleMap]) -> FunctorOnD:
    """The functor with these values and actions; ``action_of`` is called on
    the prime steps only."""
    objs = cat.objects
    values = tuple(value_of(d) for d in objs)
    steps = tuple(action_of(objs[i], objs[j]) for i, j in cat.prime_steps)
    return FunctorOnD(cat, variance, values, steps)


# ---------------------------------------------------------------------------
# Module-induced functors


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


@lru_cache(maxsize=128)
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


@_memo(maxsize=128)
def fp_functor_from_map(u: ModuleMap, cat: IndexCategoryD,
                        variance: str = COVARIANT) -> FunctorOnD:
    """The fp functor presented by u, on D; D(a, -) is the one of Z/a -> 0."""
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
    the relations identifying the two actions of every prime step of D, which
    span those of every canonical generator."""

    group: CanonicalModule
    offsets: tuple[int, ...] = field(repr=False)
    orders: tuple[int, ...] = field(repr=False)
    pres: Presentation = field(repr=False)

    @cached_property
    def injections(self) -> tuple[ModuleMap, ...]:
        """The maps G(d) (x) F(d) -> coend, the slices of ``pres.project``."""
        rows = self.pres.project.entries
        ends = self.offsets[1:] + (len(self.orders),)
        injections = []
        for start, end in zip(self.offsets, ends):
            mat = IntMatrix(self.group.ngens, end - start, tuple(row[start:end] for row in rows))
            tensor = CanonicalModule(self.group.modulus, self.orders[start:end])
            injections.append(ModuleMap(tensor, self.group, mat))
        return tuple(injections)


@lru_cache(maxsize=512)
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
    g_gens = [_generators(v) for v in G.values]
    f_gens = [_generators(v) for v in F.values]
    rel_cols: list[list[int]] = []
    for (i_d, i_e), g_act, f_act in zip(cat.prime_steps, G.steps, F.steps):
        fd, off_d = F.values[i_d], offsets[i_d]
        ge, off_e = G.values[i_e], offsets[i_e]
        if ge.is_zero() or fd.is_zero():
            continue
        g_cols = g_act.matrix.columns()     # G(e) -> G(d)
        f_cols = f_act.matrix.columns()     # F(d) -> F(e)
        for x, gx in enumerate(g_cols):
            for y, fy in enumerate(f_cols):
                left = tensors[i_d].pure(gx, f_gens[i_d][y])
                right = tensors[i_e].pure(g_gens[i_e][x], fy)
                if any(left) or any(right):
                    col = [0] * total
                    col[off_d:off_d + len(left)] = left
                    col[off_e:off_e + len(right)] = [-v for v in right]
                    rel_cols.append(col)
    pres = normalize_presentation(rel_cols, orders, cat.modulus)
    # Each injection is well defined exactly when every column of project is
    # killed by its order; checked here once, before any injection is built.
    for row, m in zip(pres.project.entries, pres.module.invariants):
        if any((o * v) % m for o, v in zip(orders, row)):
            raise InternalCheckError("coend projection does not respect the tensor orders")
    return CoendResult(pres.module, tuple(offsets), tuple(orders), pres)


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
    ambient map W is pushed to the canonical quotient as W @ ``pres.lift``,
    with no check here that W kills the coend relations; it does exactly
    when W is congruent to that result @ ``pres.project`` modulo the
    invariants of F(a).
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

    def from_family(self, maps: Sequence[ModuleMap]) -> Vec:
        amb: list[int] = []
        for h, m in zip(self.homs, maps):
            amb.extend(h.from_map(m))
        return self.subgroup.coords(amb)


def nat_transformations(F: FunctorOnD, H: FunctorOnD) -> NatModule:
    """All families (alpha_d) commuting with every generator action, found by
    solving one linear congruence system over the hom-group coordinates.

    The system holds naturality along the prime steps of D only; a family
    natural along them is natural along every canonical generator.

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
    for (i_d, i_e), f_step, h_step in zip(cat.prime_steps, F.steps, H.steps):
        f_act, h_act = f_step.matrix, h_step.matrix
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
