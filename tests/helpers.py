"""Constructions that only the tests use, built on the public zpure API."""

from dataclasses import dataclass
from typing import Optional, Sequence

from zpure.errors import InputError, InternalCheckError
from zpure.finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    direct_sum,
    direct_sum_maps,
    tensor_pair_map,
)
from zpure.funcat import (
    COVARIANT,
    CoendResult,
    FunctorOnD,
    IndexCategoryD,
    coend_tensor,
    functor_from_values,
)
from zpure.purity import InducedTerm, fp_term, induced_exact
from zpure.zmodlin import IntMatrix, _snf_core, solve_mod_many


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U * A * V with unimodular U, V.

    The diagonal of S is nonnegative and forms a divisibility chain
    s_1 | s_2 | ... ; ``u_inv`` is the exact inverse of U, tracked during
    the reduction so change-of-basis data never needs a separate inversion.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.S.entries[i][i] for i in range(min(self.S.rows, self.S.cols))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with all transforms; see SnfResult for invariants."""
    m, n = A.rows, A.cols
    S = [list(row) for row in A.entries]
    U, Uinv, V = _snf_core(S, m, n, True, True, True)
    return SnfResult(
        U=IntMatrix.from_rows(U, cols=m),
        S=IntMatrix.from_rows(S, cols=n),
        V=IntMatrix.from_rows(V, cols=n),
        u_inv=IntMatrix.from_rows(Uinv, cols=m),
    )


def inverse(f: ModuleMap) -> ModuleMap:
    """The inverse of a bijective module map, verified on composition."""
    if not f.is_bijective():
        raise InputError("inverse of a non-bijective map")
    cols = []
    for i in range(f.codomain.ngens):
        target = f.codomain.generator(i)
        sol = solve_mod_many(f.matrix, target, f.codomain.invariants)
        if sol is None:
            raise InternalCheckError("bijective map with unsolvable generator")
        cols.append(f.domain.reduce(sol[0]))
    mat = IntMatrix(f.domain.ngens, f.codomain.ngens,
                    tuple(tuple(cols[j][i] for j in range(f.codomain.ngens))
                          for i in range(f.domain.ngens)))
    inv = ModuleMap(f.codomain, f.domain, mat)
    if (inv @ f) != ModuleMap.identity(f.domain):
        raise InternalCheckError("inverse verification failed")
    return inv


def direct_sum_sequences(a: ShortSequence, b: ShortSequence) -> ShortSequence:
    """The sum of two short exact sequences, term by term."""
    ls = direct_sum([a.left, b.left])
    ms = direct_sum([a.middle, b.middle])
    rs = direct_sum([a.right, b.right])
    f = direct_sum_maps([a.f, b.f], ls, ms)
    g = direct_sum_maps([a.g, b.g], ms, rs)
    return ShortSequence(ls.module, ms.module, rs.module, f, g)


def zero_functor(cat: IndexCategoryD, variance: str = COVARIANT) -> FunctorOnD:
    zero = CanonicalModule.zero(cat.modulus)
    return functor_from_values(cat, variance, lambda d: zero,
                               lambda d, e: ModuleMap.zero(zero, zero))


def direct_sum_functors(F: FunctorOnD, G: FunctorOnD) -> FunctorOnD:
    if F.category != G.category or F.variance != G.variance:
        raise InputError("direct sum of incompatible functors")
    cat = F.category
    sums = {d: direct_sum([F.value(d), G.value(d)]) for d in cat.objects}

    def action_of(d, e):
        if F.is_covariant():
            src, dst = sums[d], sums[e]
        else:
            src, dst = sums[e], sums[d]
        return direct_sum_maps([F.action(d, e), G.action(d, e)], src, dst)

    return functor_from_values(cat, F.variance, lambda d: sums[d].module, action_of)


def _coend_transport(src: CoendResult, dst: CoendResult,
                     blocks: Sequence[ModuleMap]) -> ModuleMap:
    """Block-diagonal map between coend ambients pushed to the quotients."""
    total_src = len(src.orders)
    total_dst = len(dst.orders)
    W = [[0] * total_src for _ in range(total_dst)]
    for i_d, blk in enumerate(blocks):
        for r in range(blk.matrix.rows):
            for c in range(blk.matrix.cols):
                W[dst.offsets[i_d] + r][src.offsets[i_d] + c] = blk.matrix.entries[r][c]
    Wm = IntMatrix.from_rows(W, cols=total_src)
    final = dst.pres.project @ Wm @ src.pres.lift
    return ModuleMap(src.group, dst.group, final)


def coend_map_left(G1: FunctorOnD, G2: FunctorOnD, F: FunctorOnD,
                   eta: Sequence[ModuleMap],
                   src: Optional[CoendResult] = None,
                   dst: Optional[CoendResult] = None) -> ModuleMap:
    """coend(G1, F) -> coend(G2, F) induced by a natural map eta: G1 -> G2."""
    cat = F.category
    src = src if src is not None else coend_tensor(G1, F)
    dst = dst if dst is not None else coend_tensor(G2, F)
    blocks = [tensor_pair_map(eta[i], ModuleMap.identity(F.value(d)))
              for i, d in enumerate(cat.objects)]
    return _coend_transport(src, dst, blocks)


def coend_map_right(G: FunctorOnD, F1: FunctorOnD, F2: FunctorOnD,
                    eta: Sequence[ModuleMap],
                    src: Optional[CoendResult] = None,
                    dst: Optional[CoendResult] = None) -> ModuleMap:
    """coend(G, F1) -> coend(G, F2) induced by a natural map eta: F1 -> F2."""
    cat = G.category
    src = src if src is not None else coend_tensor(G, F1)
    dst = dst if dst is not None else coend_tensor(G, F2)
    blocks = [tensor_pair_map(ModuleMap.identity(G.value(d)), eta[i])
              for i, d in enumerate(cat.objects)]
    return _coend_transport(src, dst, blocks)


# One catalog entry at a time: the checkers read the same terms from
# per-module tables and share work between entries.


def fp_functor_exact(u: ModuleMap, seq: ShortSequence) -> bool:
    """Whether F_u(L) -> F_u(M) -> F_u(N) is exact, F_u = coker(Hom(a, -) ->
    Hom(b, -)) for u: b -> a."""
    terms = [fp_term(u, m) for m in (seq.left, seq.middle, seq.right)]
    return induced_exact(seq.f, seq.g, *terms, blocks=u.domain.ngens)


def pp_pair_exact(phis, psis, seq: ShortSequence, free_count: int) -> bool:
    """Whether phi/psi(L) -> phi/psi(M) -> phi/psi(N) is exact, given the
    evaluations of phi and of psi & phi at the three terms."""
    if all(p.cardinality == q.cardinality for p, q in zip(phis, psis)):
        return True  # all three sort groups vanish; trivially exact
    terms = [InducedTerm(p.ambient_orders, p.gens, p.key, q.key, p.cardinality // q.cardinality)
             for p, q in zip(phis, psis)]
    return induced_exact(seq.f, seq.g, *terms, blocks=free_count)
