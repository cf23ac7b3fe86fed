"""Six independent purity decision procedures and their consensus harness.

Each checker decides, by a different route, whether a short exact sequence of
finite Z/N-modules is pure:

  hom_lifting  every map from a cyclic module into the right term lifts
               through the middle (cyclic test objects suffice: every finite
               module is a sum of cyclics and surjectivity is componentwise)
  split        a section of the quotient map exists (over Z/N every finite
               module is pure-injective, so purity and splitness coincide;
               this checker doubles as the ground-truth oracle)
  fp_functors  the sequences induced by a catalog of finitely presented
               functors, realized as cokernels of maps of representables,
               stay exact
  pp_pairs     the sort-group sequences induced by a catalog of pp pairs
               stay exact
  tensor       tensoring with each cyclic module keeps the left map
               injective (right-exactness holds automatically; finitely
               generated test objects suffice, and over Z/N the same test
               also covers the dual conditions stated for the fp-injective
               and injective functor classes)
  dual_split   the character-dual sequence is split

All six conditions are equivalent for finite modules over Z/N, so the
checkers must always agree; a disagreement is treated as a bug in this
package, never as a mathematical discovery.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Callable, Optional, Sequence

from .errors import InternalCheckError, InputError
from .finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    Subgroup,
    divisor_chains,
    dual_map,
    hom_module,
    prime_powers,
    random_ses,
    splitting_section,
    tensor_map,
)
from .ppdef import (
    enumerate_pp,
    eval_pp,
    format_pp,
    pp_conjunctions,
)
from .zmodlin import (
    IntMatrix,
    Vec,
    hermite_extend,
    hermite_key,
    hermite_reduce,
    key_order,
    smith_reduce,
)

CHECKER_NAMES = ("hom_lifting", "split", "fp_functors", "pp_pairs", "tensor", "dual_split")


@dataclass(frozen=True)
class Bounds:
    """Catalog bounds for the two redundant checkers."""

    pp_free: int = 1
    pp_exists: int = 2
    pp_rows: int = 2
    fp_depth: int = 2

    def validate(self):
        if self.pp_free < 1 or self.pp_exists < 0 or self.pp_rows < 0 or self.fp_depth < 0:
            raise InputError("catalog bounds out of range")
        # a catalog of trivial entries decides nothing, and the checker would
        # call every impure sequence pure; with one free variable the
        # annihilator formulas still decide purity without rows
        if self.fp_depth < 1:
            raise InputError("fp_depth 0 leaves only the zero functor in the fp catalog")
        if self.pp_free > 1 and self.pp_rows < 1:
            raise InputError("pp_rows 0 with more than one free variable leaves only "
                             "the trivial formula in the pp catalog")

    def to_dict(self) -> dict:
        return {"pp_free": self.pp_free, "pp_exists": self.pp_exists,
                "pp_rows": self.pp_rows, "fp_depth": self.fp_depth}


DEFAULT_BOUNDS = Bounds()


# ---------------------------------------------------------------------------
# Individual checkers


@lru_cache(maxsize=4096)
def _torsion_subgroup(module: CanonicalModule, d: int) -> Subgroup:
    """The d-torsion, d > 1, cached per (module, d): it is Hom(Z/d, module),
    generated by the carrier steps e_i/gcd(d, e_i) times the generators."""
    hom = hom_module(CanonicalModule.cyclic(module.modulus, d), module)
    steps = [step for ((_, step),) in hom.carriers]
    return Subgroup(module.invariants, module.modulus, IntMatrix.diagonal(steps).entries)


def check_hom_lifting(seq: ShortSequence):
    """For every divisor d, maps Z/d -> right must lift through g.

    Hom(Z/d, X) is the d-torsion of X, so the condition is that g carries the
    d-torsion of the middle onto the d-torsion of the right term.  A failure
    witness is a d-torsion element of the right term outside the image,
    i.e. a homomorphism Z/d -> right with no lift.  Only the prime powers
    p^j | N are tried, in ascending order: the d-torsion is the sum of the
    p^j-torsion, p^j exactly dividing d, and g respects that sum, so d fails
    exactly when such a p^j <= d fails.  The first failing divisor is thus a
    prime power, and the verdict, d and target are those of every divisor.
    """
    for d in prime_powers(seq.modulus):
        tor_m = _torsion_subgroup(seq.middle, d)
        tor_n = _torsion_subgroup(seq.right, d)
        pushed = Subgroup(seq.right.invariants, seq.modulus,
                          tuple(seq.g.apply(x) for x in tor_m.gens))
        if pushed.cardinality == tor_n.cardinality:
            continue
        # the first element(c), c in tor_n.module.elements() (last coordinate
        # fastest), outside the image: ``element`` is an injective homomorphism
        for j in reversed(range(tor_n.module.ngens)):
            y = tor_n.element(tor_n.module.generator(j))
            if not pushed.contains(y):
                return False, {"kind": "unliftable_hom", "cyclic": d, "target": list(y)}
        raise InternalCheckError("torsion image smaller but no witness found")
    return True, None


def check_split_oracle(seq: ShortSequence):
    s = splitting_section(seq)
    if s is None:
        return False, {"kind": "no_section"}
    return True, {"kind": "section", "matrix": s.matrix.tolists()}


def check_fp_functors(seq: ShortSequence, bounds: Bounds = DEFAULT_BOUNDS):
    """Exactness of every sequence induced by the bounded fp-functor catalog.

    The terms come from the three modules' tables; ``InducedMaps`` shares
    work between the entries of one domain b, whose carriers are equal."""
    tables = [module_terms(m, bounds) for m in (seq.left, seq.middle, seq.right)]
    maps = InducedMaps(seq.f, seq.g)
    for i, u in enumerate(tables[0].fp_maps):
        b = u.domain
        if not maps.exact(*(t.fp(i) for t in tables), blocks=b.ngens):
            return False, {
                "kind": "fp_functor",
                "map_domain": list(b.invariants),
                "map_codomain": list(u.codomain.invariants),
                "matrix": u.matrix.tolists(),
            }
    return True, None


def check_pp_pairs(seq: ShortSequence, bounds: Bounds = DEFAULT_BOUNDS):
    """Exactness of the sort-group sequence for every catalog pp pair.

    The terms come from the three modules' tables; ``InducedMaps`` shares
    work between the pairs of one phi, whose carriers G = phi(X) are equal."""
    tables = [module_terms(m, bounds) for m in (seq.left, seq.middle, seq.right)]
    maps = InducedMaps(seq.f, seq.g)
    catalog = tables[0].pp_formulas
    for i, phi in enumerate(catalog):
        for j, psi in enumerate(catalog):
            terms = [t.pp(i, j) for t in tables]
            if all(t.order == 1 for t in terms):
                continue  # all three sort groups vanish; trivially exact
            if not maps.exact(*terms, blocks=phi.free_count):
                return False, {"kind": "pp_pair",
                               "phi": format_pp(phi), "psi": format_pp(psi)}
    return True, None


def check_tensor(seq: ShortSequence):
    """Tensoring with Y must keep the left map injective; cyclic Y suffice.

    Only Y = Z/p^j, p^j | N, are tried, in ascending order: Z/d (x) f is the
    sum of the Z/p^j (x) f, p^j exactly dividing d, so as in
    ``check_hom_lifting`` the first failing divisor d is a prime power.
    """
    for d in prime_powers(seq.modulus):
        if not tensor_map(CanonicalModule.cyclic(seq.modulus, d), seq.f).is_injective():
            return False, {"kind": "tensor", "cyclic": d}
    return True, None


def check_dual_split(seq: ShortSequence):
    """Split exactness of the character-dual sequence.

    The dual sequence failing plain exactness violates the injective
    cogenerator property and signals a bug, not an input condition.
    """
    try:   # right* -> middle* -> left*
        dual_seq = ShortSequence.from_maps(dual_map(seq.g), dual_map(seq.f))
    except InputError:
        raise InternalCheckError("dual of an exact sequence failed exactness") from None
    if splitting_section(dual_seq) is None:
        return False, {"kind": "dual_not_split"}
    return True, None


# ---------------------------------------------------------------------------
# Exactness of induced sequences by subgroup orders


@dataclass(frozen=True)
class InducedTerm:
    """F(X) = G(X)/R(X) for an additive functor F, in raw coordinates.

    G(X) and R(X) <= G(X) are subgroups of prod Z/o_i, the coordinates
    grouped into blocks, one copy of X per block on which a map X -> Y acts.
    ``carrier`` and ``relations`` are the Hermite keys of G(X) and R(X);
    ``order`` is |F(X)| = |G(X)| / |R(X)|.
    """

    orders: tuple[int, ...]
    carrier: tuple[Vec, ...]
    relations: tuple[Vec, ...]
    order: int


def _blockwise(f: ModuleMap, blocks: int):
    """The map (dom f)^blocks -> (cod f)^blocks applying f to each block."""
    s = f.domain.ngens
    cols = f.matrix.transpose().entries
    n = len(f.codomain.invariants)
    orders = f.codomain.invariants * blocks

    def push(vec: Sequence[int]) -> Vec:
        out = [0] * len(orders)
        for i, v in enumerate(vec):
            if v:
                j, t = divmod(i, s)
                base = j * n
                for l, a in enumerate(cols[t]):
                    out[base + l] += a * v
        return tuple(o % e for o, e in zip(out, orders))

    return push


def _inside(vectors, key) -> bool:
    return not any(any(hermite_reduce(v, key)) for v in vectors)


def _key_images(push, key, orders) -> list[Vec]:
    """Images of the rows of a key, which generate its subgroup; a row with
    pivot o_i is o_i*e_i, which maps to zero, plus later rows, so it is skipped."""
    return [push(row) for i, (row, o) in enumerate(zip(key, orders)) if row[i] != o]


class InducedMaps:
    """f and g of one sequence L -f-> M -g-> N acting on induced terms.

    ``exact`` decides whether F(L) -> F(M) -> F(N) is exact.  It builds the
    blockwise pushes, the pushed generators of G and the carrier checks once
    per (blocks, left.carrier, middle.carrier, right.carrier), everything
    they depend on.
    """

    def __init__(self, f: ModuleMap, g: ModuleMap):
        self.f, self.g = f, g
        self._carriers: dict = {}

    def _pushed(self, left: InducedTerm, middle: InducedTerm, right: InducedTerm,
                blocks: int) -> tuple:
        push_f, push_g = _blockwise(self.f, blocks), _blockwise(self.g, blocks)
        f_gens = _key_images(push_f, left.carrier, left.orders)
        g_gens = _key_images(push_g, middle.carrier, middle.orders)
        if not (_inside(f_gens, middle.carrier) and _inside(g_gens, right.carrier)):
            raise InternalCheckError("induced map is ill-defined")
        return push_f, push_g, f_gens, g_gens, [push_g(v) for v in f_gens]

    def exact(self, left: InducedTerm, middle: InducedTerm, right: InducedTerm,
              blocks: int) -> bool:
        """Whether F(L) -> F(M) -> F(N), induced by L -f-> M -g-> N, is exact.

        The checks of ``finmod.exactness_failure`` on the induced maps, read
        off subgroup orders in raw coordinates, with no quotient module
        built: g(f(G(L))) <= R(N), |F(M)| = |F(L)| |F(N)|,
        |f(G(L)) + R(M)| = |F(L)| |R(M)| (injective) and g(G(M)) + R(N) = G(N)
        (surjective; equal Hermite keys).  A map that does not carry G into G
        and R into R is a defect.
        """
        at = (blocks, left.carrier, middle.carrier, right.carrier)
        data = self._carriers.get(at)
        if data is None:
            data = self._carriers[at] = self._pushed(left, middle, right, blocks)
        push_f, push_g, f_gens, g_gens, gf_gens = data
        for push, term, target in ((push_f, left, middle), (push_g, middle, right)):
            if not _inside(_key_images(push, term.relations, term.orders), target.relations):
                raise InternalCheckError("induced map is ill-defined")
        if not _inside(gf_gens, right.relations) or middle.order != left.order * right.order:
            return False
        orders = middle.orders
        image = hermite_extend(middle.relations, f_gens, orders)
        if key_order(image, orders) != left.order * key_order(middle.relations, orders):
            return False
        return hermite_extend(right.relations, g_gens, right.orders) == right.carrier


def fp_term(u: ModuleMap, module: CanonicalModule) -> InducedTerm:
    """F_u(X) = coker(Hom(a, X) -> Hom(b, X)) for u: b -> a, with Hom(b, X)
    inside the X x b matrices, block j holding column j, the image of the
    j-th generator of b.

    Hom(Z/b_j, Z/x_k) is generated by x_k/gcd(x_k, b_j), so G(X) has the
    diagonal key of those entries.  R(X) = Hom(a, X) o u is generated, one
    vector per pair (k, i), by x_k/gcd(x_k, a_i) times row i of u, placed
    at coordinate k of every block.
    """
    x = module.invariants
    n = len(x)
    orders = x * u.domain.ngens
    steps = [xk // gcd(xk, bj) for bj in u.domain.invariants for xk in x]
    w = len(orders)
    carrier = tuple(tuple(c if i == j else 0 for j in range(w)) for i, c in enumerate(steps))
    rels = []
    for k, xk in enumerate(x):
        for row, ai in zip(u.matrix.entries, u.codomain.invariants):
            c = xk // gcd(xk, ai)
            vec = [0] * w
            for j, v in enumerate(row):
                vec[j * n + k] = c * v
            rels.append(vec)
    relations = hermite_key(rels, orders)
    order = key_order(carrier, orders) // key_order(relations, orders)
    return InducedTerm(orders, carrier, relations, order)


# ---------------------------------------------------------------------------
# fp-functor catalog


def _modules_with_bounded_gens(modulus: int, depth: int) -> list[CanonicalModule]:
    return [CanonicalModule(modulus, c)
            for chains in divisor_chains(modulus, depth) for c in chains]


def fp_invariants(u: ModuleMap, d: int) -> tuple[int, ...]:
    """Invariant factors of F_u(Z/d) = coker(Hom(a, Z/d) -> Hom(b, Z/d)) for
    u: b -> a, read off a gcd matrix.

    Hom(Z/a_i, Z/d) is cyclic of order g_i = gcd(a_i, d), generated by
    1 -> d/g_i, and likewise Hom(Z/b_j, Z/d) of order h_j = gcd(b_j, d).
    Composing the i-th generator with u sends the j-th generator of b to
    u_ij * d/g_i, which is u_ij * h_j/g_i times the j-th generator of
    Hom(b, Z/d); the quotient exists because u is well defined.  So F_u(Z/d)
    is the cokernel on the sum of the Z/h_j of the matrix with rows j and
    entries u_ij * h_j/g_i, and its invariant factors are the Smith diagonal
    over Z/d of that matrix next to diag(h), without the ones.
    """
    g = [gcd(x, d) for x in u.codomain.invariants]
    h = [gcd(y, d) for y in u.domain.invariants]
    entries = u.matrix.entries
    rows = [[entries[i][j] * hj // gi % hj for i, gi in enumerate(g)]
            + [hj if k == j else 0 for k in range(len(h))]
            for j, hj in enumerate(h)]
    smith_reduce(rows, len(h), len(g) + len(h), d)
    return tuple(s for s in (gcd(rows[j][j], d) for j in range(len(h))) if s != 1)


# fp_catalog signs every pair (b, a) of modules with at most ``depth``
# generators.  N=360 at depth 2 has 32,400 pairs and builds in about 20 s on
# a 2-core machine; counts over this budget are refused before any build.
MAX_FP_PAIRS = 40_000


def fp_catalog_pairs(modulus: int, depth: int) -> int:
    """len(_modules_with_bounded_gens(modulus, depth)) ** 2, counted without
    building a module, one chain length at a time.  Counting stops at the
    first length whose total passes the budget, so a count over
    MAX_FP_PAIRS is a lower bound."""
    total = 0
    for chains in divisor_chains(modulus, depth):
        total += len(chains)
        if total * total > MAX_FP_PAIRS:
            break
    return total * total


def check_fp_budget(modulus: int, depth: int) -> None:
    pairs = fp_catalog_pairs(modulus, depth)
    if pairs > MAX_FP_PAIRS:
        raise InputError(f"the fp catalog at modulus {modulus} and depth {depth} has at "
                         f"least {pairs} module pairs, over the budget of {MAX_FP_PAIRS}")


@lru_cache(maxsize=16)
def fp_catalog(modulus: int, depth: int) -> tuple[ModuleMap, ...]:
    """Deterministic catalog of presentation maps u: b -> a, deduplicated by
    the invariants of the induced functor on the cyclic test modules Z/p^j,
    p^j in ``prime_powers(modulus)`` (``fp_invariants``).

    F_u is additive and Z/d is the sum of its primary parts Z/p^j, so
    F_u(Z/d) is the sum of the F_u(Z/p^j): the prime powers fix the
    invariants at every divisor, and deduplicating on them keeps the classes
    of deduplicating on all divisors, member for member.
    """
    check_fp_budget(modulus, depth)
    powers = prime_powers(modulus)
    mods = _modules_with_bounded_gens(modulus, depth)
    catalog: list[ModuleMap] = []
    seen = set()
    for b in mods:
        for a in mods:
            h = hom_module(b, a)
            candidates = [ModuleMap.zero(b, a)]
            for i in range(h.module.ngens):
                candidates.append(h.to_map(h.module.generator(i)))
            if h.module.ngens > 1:
                candidates.append(h.to_map(tuple(1 for _ in range(h.module.ngens))))
            for u in candidates:
                sig = tuple(fp_invariants(u, q) for q in powers)
                if sig not in seen:
                    seen.add(sig)
                    catalog.append(u)
    return tuple(catalog)


# ---------------------------------------------------------------------------
# Per-module catalog terms


class ModuleTerms:
    """The terms F(X) of one module X for every entry of the fp and pp
    catalogs, indexed by catalog position and filled on first use.

    ``fp(i)`` is ``fp_term(fp_maps[i], X)``; ``pp(i, j)`` is
    phi(X)/(psi & phi)(X) for phi, psi the i-th and j-th pp formulas, from
    ``eval_pp`` and ``pp_conjunctions``.  A checker reads its terms here by
    index, so it hashes no map or formula per entry.
    """

    def __init__(self, module: CanonicalModule, bounds: Bounds):
        self.module = module
        self.fp_maps = fp_catalog(module.modulus, bounds.fp_depth)
        pp = (module.modulus, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
        self.pp_formulas = enumerate_pp(*pp)
        self._conjunctions = pp_conjunctions(*pp)
        self._fp: list[Optional[InducedTerm]] = [None] * len(self.fp_maps)
        self._phi: list[Optional[Subgroup]] = [None] * len(self.pp_formulas)
        self._pp: list[Optional[InducedTerm]] = [None] * len(self._conjunctions)

    def fp(self, i: int) -> InducedTerm:
        term = self._fp[i]
        if term is None:
            term = self._fp[i] = fp_term(self.fp_maps[i], self.module)
        return term

    def _phi_x(self, k: int) -> Subgroup:
        value = self._phi[k]
        if value is None:
            value = self._phi[k] = eval_pp(self.pp_formulas[k], self.module)
        return value

    def pp(self, i: int, j: int) -> InducedTerm:
        at = i * len(self.pp_formulas) + j
        term = self._pp[at]
        if term is None:
            both = self._conjunctions[at]
            psi_x = self._phi_x(both) if isinstance(both, int) else eval_pp(both, self.module)
            phi_x = self._phi_x(i)
            term = self._pp[at] = InducedTerm(phi_x.ambient_orders, phi_x.key, psi_x.key,
                                              phi_x.cardinality // psi_x.cardinality)
        return term

    def fill(self) -> None:
        """Compute every entry."""
        for i in range(len(self.fp_maps)):
            self.fp(i)
        n = len(self.pp_formulas)
        for i in range(n):
            for j in range(n):
                self.pp(i, j)


# Tables kept at once.  At N=8 or 9 a table holds 33 or 12 fp terms and 64 or
# 16 pp terms, and modules with at most 3 generators number 20 and 10.
MAX_MODULE_TABLES = 64


@lru_cache(maxsize=MAX_MODULE_TABLES)
def module_terms(module: CanonicalModule, bounds: Bounds) -> ModuleTerms:
    """The (lazily filled) catalog terms of ``module`` under ``bounds``."""
    return ModuleTerms(module, bounds)


# ---------------------------------------------------------------------------
# Consensus report


@dataclass(frozen=True)
class PurityReport:
    modulus: int
    bounds: Bounds
    verdicts: dict[str, bool]
    witnesses: dict[str, Optional[dict]]
    consensus: bool
    timings: dict[str, float] = field(compare=False)

    def is_pure(self) -> bool:
        return self.verdicts["split"]


def purity_report(seq: ShortSequence, bounds: Bounds = DEFAULT_BOUNDS) -> PurityReport:
    bounds.validate()
    checkers = (
        ("hom_lifting", lambda: check_hom_lifting(seq)),
        ("split", lambda: check_split_oracle(seq)),
        ("fp_functors", lambda: check_fp_functors(seq, bounds)),
        ("pp_pairs", lambda: check_pp_pairs(seq, bounds)),
        ("tensor", lambda: check_tensor(seq)),
        ("dual_split", lambda: check_dual_split(seq)),
    )
    verdicts: dict[str, bool] = {}
    witnesses: dict[str, Optional[dict]] = {}
    timings: dict[str, float] = {}
    for name, run in checkers:
        t0 = time.perf_counter()
        ok, wit = run()
        timings[name] = time.perf_counter() - t0
        verdicts[name] = ok
        witnesses[name] = None if ok else wit
    values = set(verdicts.values())
    return PurityReport(seq.modulus, bounds, verdicts, witnesses,
                        consensus=(len(values) == 1), timings=timings)


# ---------------------------------------------------------------------------
# Randomized equivalence harness


@dataclass(frozen=True)
class HarnessSummary:
    modulus: int
    trials: int
    seed: int
    bounds: Bounds
    pure_count: int
    disagreements: int
    disagreement_trials: tuple[int, ...]
    checker_false_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "trials": self.trials,
            "seed": self.seed,
            "bounds": self.bounds.to_dict(),
            "pure_count": self.pure_count,
            "disagreements": self.disagreements,
            "disagreement_trials": list(self.disagreement_trials),
            "checker_false_counts": self.checker_false_counts,
        }


def harness_workers(jobs: int, trials: int) -> int:
    """Worker processes for the harness: never more than trials or CPUs, and
    one (this process) where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    return min(jobs, trials, os.cpu_count() or 1)


def _report_verdicts(seq: ShortSequence, bounds: Bounds) -> tuple[tuple[bool, ...], bool]:
    report = purity_report(seq, bounds)
    return tuple(report.verdicts[name] for name in CHECKER_NAMES), report.consensus


def _forked_shares(share: Callable[[int], list], forked: Sequence[int]) -> list:
    """[share(0)] + [share(k) for k in forked]: this process runs share(0),
    and each other share runs in one ``os.fork`` child, which sends back
    (True, result) or (False, exception) as one pickle over a pipe and
    leaves with ``os._exit``.  With nothing in ``forked`` no child is started.

    The harness starts no thread, so forking is safe.  Children are read in
    order; a child's exception is raised here, and a child that ends without
    a result becomes an InternalCheckError naming it.  Whenever this process
    stops early, including on KeyboardInterrupt, the children still running
    are killed and reaped.
    """
    children = []  # (worker, pid, read end of its pipe)
    reaped = set()
    try:
        for k in forked:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        payload = (True, share(k))
                    except BaseException as exc:  # sent to the parent, which raises it
                        payload = (False, exc)
                    data = pickle.dumps(payload)
                    with os.fdopen(w, "wb") as out:
                        out.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((k, pid, os.fdopen(r, "rb")))
        results = [share(0)]
        for k, pid, pipe in children:
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code != 0 or not data:
                end = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise InternalCheckError(f"harness worker {k} ended without a result ({end})")
            ok, value = pickle.loads(data)  # bytes written by our own child, in full
            if not ok:
                raise value
            results.append(value)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


# The harness refuses more trials than MAX_TRIALS before drawing any, and
# `lemmas` before building its index category.  The harness draws at most
# HARNESS_ROUND trials at a time and keeps the verdicts of at most
# HARNESS_ROUND distinct sequences, so its memory stays bounded by one round
# whatever the trial count.
MAX_TRIALS = 100_000
HARNESS_ROUND = 4096
MAX_GENS = 48  # refused before any draw; README (Scope) times it and says why it stays


def equivalence_harness(modulus: int, trials: int, seed: int,
                        bounds: Bounds = DEFAULT_BOUNDS, jobs: int = 1,
                        max_gens: int = 3) -> HarnessSummary:
    """Run the six checkers on seeded random exact sequences and count
    disagreements.  Deterministic for a given seed regardless of jobs.

    This process draws the trials in rounds of at most HARNESS_ROUND and
    checks each round's new sequences over w = harness_workers(jobs, trials)
    workers, itself being worker 0; the others are forked only when they
    have a sequence to check (``_forked_shares``).  A sequence is checked
    once per call, at its first draw: the verdicts of the last HARNESS_ROUND
    distinct sequences are kept from round to round.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if modulus < 2:
        raise InputError("modulus must be >= 2")
    if max_gens < 0:
        raise InputError("max_gens must be >= 0")
    if max_gens > MAX_GENS:
        raise InputError(f"max_gens {max_gens} is over the budget of {MAX_GENS}")
    if jobs < 1:
        raise InputError("jobs must be >= 1")
    bounds.validate()
    if trials > MAX_TRIALS:
        raise InputError(f"{trials} trials are over the budget of {MAX_TRIALS}")
    check_fp_budget(modulus, bounds.fp_depth)
    # built here, before any fork, so every worker inherits warm catalogs
    enumerate_pp(modulus, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    fp_catalog(modulus, bounds.fp_depth)
    workers = harness_workers(jobs, trials)
    known: dict[ShortSequence, tuple[tuple[bool, ...], bool]] = {}
    pure = 0
    disagree: list[int] = []
    false_counts = {name: 0 for name in CHECKER_NAMES}
    split = CHECKER_NAMES.index("split")
    for start in range(0, trials, HARNESS_ROUND):
        draws = [random_ses(modulus, seed=f"{seed}:{i}", max_gens=max_gens)
                 for i in range(start, min(trials, start + HARNESS_ROUND))]
        # the round's distinct sequences in first-draw order, with the
        # verdicts known from earlier rounds; the others go to the worker
        # whose share i::workers holds their first draw
        current: dict[ShortSequence, Optional[tuple[tuple[bool, ...], bool]]] = {}
        shares: list[list[ShortSequence]] = [[] for _ in range(workers)]
        for i, seq in enumerate(draws, start):
            if seq not in current:
                current[seq] = known.pop(seq, None)
                if current[seq] is None:
                    shares[i % workers].append(seq)
        # fill the tables of the modules that more than one worker reads, so
        # no two workers build one term; a module read by one is left to it
        readers: dict[CanonicalModule, set[int]] = {}
        for k, part in enumerate(shares):
            for seq in part:
                for m in (seq.left, seq.middle, seq.right):
                    readers.setdefault(m, set()).add(k)
        shared = [m for m, ks in readers.items() if len(ks) > 1]
        for module in shared[:MAX_MODULE_TABLES]:
            module_terms(module, bounds).fill()
        forked = [k for k in range(1, workers) if shares[k]]
        checked = _forked_shares(
            lambda k: [_report_verdicts(seq, bounds) for seq in shares[k]], forked)
        for k, verdicts in zip([0, *forked], checked):
            current.update(zip(shares[k], verdicts))
        # this round's sequences become the most recent, and at most
        # HARNESS_ROUND verdicts are kept
        known.update(current)
        for seq in list(known)[:max(0, len(known) - HARNESS_ROUND)]:
            del known[seq]
        for index, seq in enumerate(draws, start):
            verdicts, consensus = current[seq]
            if not consensus:
                disagree.append(index)
            if verdicts[split]:
                pure += 1
            for name, v in zip(CHECKER_NAMES, verdicts):
                if not v:
                    false_counts[name] += 1
    return HarnessSummary(modulus, trials, seed, bounds, pure,
                          len(disagree), tuple(disagree), false_counts)
