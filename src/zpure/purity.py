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
from math import gcd, prod
from typing import Callable, Optional, Sequence

from .errors import InternalCheckError, InputError
from .finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    Subgroup,
    divisors,
    dual_map,
    hom_module,
    is_exact,
    random_ses,
    splitting_section,
    tensor_map,
)
from .ppdef import (
    PpPair,
    enumerate_pp,
    eval_pp,
    format_pp,
)
from .zmodlin import (
    IntMatrix,
    Vec,
    hermite_extend,
    hermite_key,
    hermite_reduce,
    key_order,
    snf_diagonal,
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


DEFAULT_BOUNDS = Bounds()


# ---------------------------------------------------------------------------
# Individual checkers


def _torsion_subgroup(module: CanonicalModule, d: int) -> Subgroup:
    """The d-torsion {x : d*x == 0} as a subgroup."""
    scalar = ModuleMap(module, module, IntMatrix.diagonal([d] * module.ngens))
    return scalar.kernel()


def check_hom_lifting(seq: ShortSequence):
    """For every divisor d, maps Z/d -> right must lift through g.

    Hom(Z/d, X) is the d-torsion of X, so the condition is that g carries the
    d-torsion of the middle onto the d-torsion of the right term.  A failure
    witness is a d-torsion element of the right term outside the image,
    i.e. a homomorphism Z/d -> right with no lift.
    """
    for d in divisors(seq.modulus):
        if d == 1:
            continue
        tor_m = _torsion_subgroup(seq.middle, d)
        tor_n = _torsion_subgroup(seq.right, d)
        pushed = Subgroup(seq.right.invariants, seq.modulus,
                          tuple(seq.g.apply(x) for x in tor_m.gens))
        if pushed.cardinality == tor_n.cardinality:
            continue
        for y in tor_n.elements():
            if any(y) and not pushed.contains(y):
                return False, {"kind": "unliftable_hom", "cyclic": d, "target": list(y)}
        raise InternalCheckError("torsion image smaller but no witness found")
    return True, None


def check_split_oracle(seq: ShortSequence):
    s = splitting_section(seq)
    if s is None:
        return False, {"kind": "no_section"}
    return True, {"kind": "section", "matrix": s.matrix.tolists()}


def fp_functor_exact(u: ModuleMap, seq: ShortSequence) -> bool:
    """Whether F_u(L) -> F_u(M) -> F_u(N) is exact, F_u = coker(Hom(a, -) ->
    Hom(b, -)) for u: b -> a."""
    terms = [fp_term(u, m) for m in (seq.left, seq.middle, seq.right)]
    return induced_exact(seq.f, seq.g, *terms, blocks=u.domain.ngens)


def check_fp_functors(seq: ShortSequence, bounds: Bounds = DEFAULT_BOUNDS):
    """Exactness of every sequence induced by the bounded fp-functor catalog."""
    for u in fp_catalog(seq.modulus, bounds.fp_depth):
        if not fp_functor_exact(u, seq):
            return False, {
                "kind": "fp_functor",
                "map_domain": list(u.domain.invariants),
                "map_codomain": list(u.codomain.invariants),
                "matrix": u.matrix.tolists(),
            }
    return True, None


def pp_pair_exact(phis: Sequence[Subgroup], psis: Sequence[Subgroup],
                  seq: ShortSequence, free_count: int) -> bool:
    """Whether phi/psi(L) -> phi/psi(M) -> phi/psi(N) is exact, given the
    evaluations of phi and of psi & phi at the three terms."""
    if all(p.cardinality == q.cardinality for p, q in zip(phis, psis)):
        return True  # all three sort groups vanish; trivially exact
    terms = [InducedTerm(p.ambient_orders, p.gens, p.key, q.key,
                         p.cardinality // q.cardinality)
             for p, q in zip(phis, psis)]
    return induced_exact(seq.f, seq.g, *terms, blocks=free_count)


def check_pp_pairs(seq: ShortSequence, bounds: Bounds = DEFAULT_BOUNDS):
    """Exactness of the sort-group sequence for every catalog pp pair."""
    catalog = enumerate_pp(seq.modulus, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    mods = (seq.left, seq.middle, seq.right)
    for phi in catalog:
        phis = [eval_pp(phi, m) for m in mods]
        for psi in catalog:
            pair = PpPair.of(phi, psi)
            psis = [eval_pp(pair.psi, m) for m in mods]
            if not pp_pair_exact(phis, psis, seq, phi.free_count):
                return False, {"kind": "pp_pair",
                               "phi": format_pp(phi), "psi": format_pp(psi)}
    return True, None


def check_tensor(seq: ShortSequence):
    """Tensoring with Y must keep the left map injective; cyclic Y suffice."""
    for d in divisors(seq.modulus):
        if d == 1:
            continue
        y = CanonicalModule.cyclic(seq.modulus, d)
        induced = tensor_map(y, seq.f)
        if not induced.is_injective():
            return False, {"kind": "tensor", "cyclic": d}
    return True, None


def check_dual_split(seq: ShortSequence):
    """Split exactness of the character-dual sequence.

    The dual sequence failing plain exactness violates the injective
    cogenerator property and signals a bug, not an input condition.
    """
    f_dual = dual_map(seq.g)   # right* -> middle*
    g_dual = dual_map(seq.f)   # middle* -> left*
    if not is_exact(f_dual, g_dual):
        raise InternalCheckError("dual of an exact sequence failed exactness")
    dual_seq = ShortSequence.from_maps(f_dual, g_dual)
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
    ``gens`` generate G(X); ``carrier`` and ``relations`` are the Hermite
    keys of G(X) and R(X); ``order`` is |F(X)| = |G(X)| / |R(X)|.
    """

    orders: tuple[int, ...]
    gens: tuple[Vec, ...]
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


def _relation_images(push, term: InducedTerm) -> list[Vec]:
    """Images of the rows of R(X)'s key; a row with pivot o_i is o_i*e_i
    plus later rows, and o_i*e_i maps to zero, so it is skipped."""
    return [push(row) for i, (row, o) in enumerate(zip(term.relations, term.orders))
            if row[i] != o]


def induced_exact(f: ModuleMap, g: ModuleMap, left: InducedTerm, middle: InducedTerm,
                  right: InducedTerm, blocks: int) -> bool:
    """Whether F(L) -> F(M) -> F(N), induced by L -f-> M -g-> N, is exact.

    The checks of ``finmod.exactness_failure`` on the induced maps, read off
    subgroup orders in raw coordinates, with no quotient module built:
    g(f(G(L))) <= R(N), |f(G(L)) + R(M)| = |F(L)| |R(M)| (injective),
    |g(G(M)) + R(N)| = |G(N)| (surjective) and |F(M)| = |F(L)| |F(N)|.
    A map that does not carry G into G and R into R is a defect.
    """
    push_f, push_g = _blockwise(f, blocks), _blockwise(g, blocks)
    f_gens = [push_f(v) for v in left.gens]
    g_gens = [push_g(v) for v in middle.gens]
    if not (_inside(f_gens, middle.carrier) and _inside(g_gens, right.carrier)
            and _inside(_relation_images(push_f, left), middle.relations)
            and _inside(_relation_images(push_g, middle), right.relations)):
        raise InternalCheckError("induced map is ill-defined")
    if not _inside(map(push_g, f_gens), right.relations):
        return False
    if (key_order(hermite_extend(middle.relations, f_gens, middle.orders), middle.orders)
            != left.order * key_order(middle.relations, middle.orders)):
        return False
    if (key_order(hermite_extend(right.relations, g_gens, right.orders), right.orders)
            != key_order(right.carrier, right.orders)):
        return False
    return middle.order == left.order * right.order


@lru_cache(maxsize=16384)
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
    gens = tuple(row for row, c, o in zip(carrier, steps, orders) if c != o)
    rels = []
    for k, xk in enumerate(x):
        for row, ai in zip(u.matrix.entries, u.codomain.invariants):
            c = xk // gcd(xk, ai)
            vec = [0] * w
            for j, v in enumerate(row):
                vec[j * n + k] = c * v
            rels.append(vec)
    relations = hermite_key(rels, orders)
    order = prod(r[i] for i, r in enumerate(relations)) // prod(steps)
    return InducedTerm(orders, gens, carrier, relations, order)


# ---------------------------------------------------------------------------
# fp-functor catalog


def _modules_with_bounded_gens(modulus: int, depth: int) -> list[CanonicalModule]:
    chains: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    divs = [d for d in divisors(modulus) if d >= 2]
    for _ in range(depth):
        nxt = []
        for chain in frontier:
            lower = chain[-1] if chain else None
            for d in divs:
                if lower is None or d % lower == 0:
                    nxt.append(chain + (d,))
        chains.extend(nxt)
        frontier = nxt
    return [CanonicalModule(modulus, c) for c in chains]


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
    of that matrix next to diag(h), without the ones.
    """
    g = [gcd(x, d) for x in u.codomain.invariants]
    h = [gcd(y, d) for y in u.domain.invariants]
    entries = u.matrix.entries
    rows = [[entries[i][j] * hj // gi % hj for i, gi in enumerate(g)]
            + [hj if k == j else 0 for k in range(len(h))]
            for j, hj in enumerate(h)]
    return tuple(s for s in snf_diagonal(rows, len(h), len(g) + len(h)) if s != 1)


def _is_prime_power(d: int) -> bool:
    p = divisors(d)[1]  # the least prime factor of d >= 2
    while d % p == 0:
        d //= p
    return d == 1


# fp_catalog signs every pair (b, a) of modules with at most ``depth``
# generators.  N=360 at depth 2 has 32,400 pairs and builds in about 20 s on
# a 2-core machine; counts over this budget are refused before any build.
MAX_FP_PAIRS = 40_000


def fp_catalog_pairs(modulus: int, depth: int) -> int:
    """len(_modules_with_bounded_gens(modulus, depth)) ** 2, counted without
    building a module: chains ending at e extend those ending at each d | e.
    Counting stops at the first chain length whose total passes the budget,
    so a count over MAX_FP_PAIRS is a lower bound."""
    divs = [d for d in divisors(modulus) if d >= 2]
    total, ends = 1, [1] * len(divs)
    for level in range(depth if divs else 0):
        if level:
            ends = [sum(c for c, d in zip(ends, divs) if e % d == 0) for e in divs]
        total += sum(ends)
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
    p^j a prime power dividing the modulus (``fp_invariants``).

    F_u is additive and Z/d is the sum of its primary parts Z/p^j, so
    F_u(Z/d) is the sum of the F_u(Z/p^j): the prime powers fix the
    invariants at every divisor, and deduplicating on them keeps the classes
    of deduplicating on all divisors, member for member.
    """
    check_fp_budget(modulus, depth)
    divs = [d for d in divisors(modulus) if d > 1 and _is_prime_power(d)]
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
                sig = tuple(fp_invariants(u, d) for d in divs)
                if sig not in seen:
                    seen.add(sig)
                    catalog.append(u)
    return tuple(catalog)


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
            "bounds": {
                "pp_free": self.bounds.pp_free,
                "pp_exists": self.bounds.pp_exists,
                "pp_rows": self.bounds.pp_rows,
                "fp_depth": self.bounds.fp_depth,
            },
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


def _child_outcome(worker: int, data: bytes, status: int):
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        end = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise InternalCheckError(f"harness worker {worker} ended without a result ({end})")
    return pickle.loads(data)  # bytes written by our own child, in full


def _forked_shares(share: Callable[[int], list], workers: int) -> list:
    """[share(0), ..., share(workers - 1)]: this process runs share(0), and
    each other share runs in one ``os.fork`` child, which sends back
    (True, result) or (False, exception) as one pickle over a pipe and
    leaves with ``os._exit``.

    The harness starts no thread, so forking is safe.  A child's exception
    is raised here once every child is reaped; a child that ends without a
    result becomes an InternalCheckError naming it.  If this process fails
    first, including on KeyboardInterrupt, the children still running are
    killed and reaped.
    """
    children = []  # (worker, pid, read end of its pipe)
    reaped = set()
    try:
        for k in range(1, workers):
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
        outcomes = [(True, share(0))]
        for k, pid, pipe in children:
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            outcomes.append(_child_outcome(k, data, status))
    finally:
        for _, pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def equivalence_harness(modulus: int, trials: int, seed: int,
                        bounds: Bounds = DEFAULT_BOUNDS, jobs: int = 1,
                        max_gens: int = 3) -> HarnessSummary:
    """Run the six checkers on seeded random exact sequences and count
    disagreements.  Deterministic for a given seed regardless of jobs.

    With w = harness_workers(jobs, trials), worker k runs trials k::w, this
    process being worker 0 (``_forked_shares``).  Each worker checks a
    sequence drawn more than once only at its first draw: its verdicts are
    memoized for this call, keyed by the sequence.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if modulus < 2:
        raise InputError("modulus must be >= 2")
    if max_gens < 0:
        raise InputError("max_gens must be >= 0")
    bounds.validate()
    check_fp_budget(modulus, bounds.fp_depth)
    # built here, before any fork, so every worker inherits warm catalogs
    enumerate_pp(modulus, bounds.pp_free, bounds.pp_exists, bounds.pp_rows)
    fp_catalog(modulus, bounds.fp_depth)
    workers = harness_workers(jobs, trials)
    verdicts_of = lru_cache(maxsize=4096)(_report_verdicts)

    def share(k: int) -> list[tuple[int, tuple[bool, ...], bool]]:
        return [(i, *verdicts_of(random_ses(modulus, seed=f"{seed}:{i}", max_gens=max_gens),
                                 bounds))
                for i in range(k, trials, workers)]

    results = [r for part in _forked_shares(share, workers) for r in part]
    results.sort(key=lambda r: r[0])
    pure = 0
    disagree: list[int] = []
    false_counts = {name: 0 for name in CHECKER_NAMES}
    for index, verdicts, consensus in results:
        if not consensus:
            disagree.append(index)
        if verdicts[CHECKER_NAMES.index("split")]:
            pure += 1
        for name, v in zip(CHECKER_NAMES, verdicts):
            if not v:
                false_counts[name] += 1
    return HarnessSummary(modulus, trials, seed, bounds, pure,
                          len(disagree), tuple(disagree), false_counts)
