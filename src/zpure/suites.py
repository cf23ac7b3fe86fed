"""Randomized verification suites for the functor-level isomorphisms.

Each suite draws seeded random inputs, runs an exact isomorphism check, and
reports pass/fail counts.  These back the `lemmas` CLI command and the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .finmod import direct_sum, hom_module, random_module
from .funcat import (
    build_index_category,
    dual_of_hom_check,
    hom_tensor_duality_check,
    kan_eval,
    nat_transformations,
    random_contra_functor,
    random_functor,
    tensor_functor,
    coend_evaluation_map,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _run(name: str, tag: str, modulus: int, trials: int, seed,
         checks: Callable[..., Iterable[tuple[str, bool]]]) -> SuiteResult:
    """Count what ``checks(cat, rng, i)`` yields for each trial i: one
    (failure label, ok) pair per check, in order, all drawing on one rng."""
    cat = build_index_category(modulus)
    rng = random.Random(f"{tag}:{modulus}:{seed}")
    outcomes = [outcome for i in range(trials) for outcome in checks(cat, rng, i)]
    failures = tuple(label for label, ok in outcomes if not ok)
    return SuiteResult(name, len(outcomes) - len(failures), len(outcomes), failures)


def suite_coend_evaluation(modulus: int, trials: int, seed) -> SuiteResult:
    """Evaluation map coend(D(-, Z/d), F) -> F(d) is an isomorphism."""
    def checks(cat, rng, i):
        F = random_functor(cat, rng)
        for d in cat.objects:
            yield f"trial {i}, object {d}", coend_evaluation_map(F, d)[1].is_bijective()
    return _run("coend_evaluation", "coendeval", modulus, trials, seed, checks)


def suite_restriction(modulus: int, trials: int, seed) -> SuiteResult:
    """Extension restricted to D gives back F; extension is additive."""
    def checks(cat, rng, i):
        F = random_functor(cat, rng)
        for d in cat.objects:
            yield f"restriction: trial {i}, object {d}", kan_eval(F, cat.cyclic(d)) == F.value(d)
        c1 = random_module(modulus, rng, 2)
        c2 = random_module(modulus, rng, 2)
        lhs = kan_eval(F, direct_sum([c1, c2]).module)
        rhs = direct_sum([kan_eval(F, c1), kan_eval(F, c2)]).module
        yield f"additivity: trial {i}", lhs == rhs
    return _run("restriction", "restrict", modulus, trials, seed, checks)


def suite_hom_tensor(modulus: int, trials: int, seed) -> SuiteResult:
    """(G (x) F)* is Nat(F, G*) via the canonical map."""
    def checks(cat, rng, i):
        G = random_contra_functor(cat, rng)
        F = random_functor(cat, rng)
        yield f"trial {i}", hom_tensor_duality_check(G, F)
    return _run("hom_tensor_duality", "homtensor", modulus, trials, seed, checks)


def suite_dual_of_hom(modulus: int, trials: int, seed) -> SuiteResult:
    """Hom(-, X)* and X* (x) - agree objectwise on D."""
    def checks(cat, rng, i):
        x = random_module(modulus, rng, 2)
        yield f"trial {i}: {x}", dual_of_hom_check(x, cat)
    return _run("dual_of_hom", "dualhom", modulus, trials, seed, checks)


def suite_fully_faithful(modulus: int, trials: int, seed) -> SuiteResult:
    """Tensor-embedding checks: non-isomorphic Y give different functors, and
    Nat(Y (x) -, Y' (x) -) has exactly |Hom(Y, Y')| elements."""
    def checks(cat, rng, i):
        y1 = random_module(modulus, rng, 2)
        y2 = random_module(modulus, rng, 2)
        t1 = tensor_functor(cat, y1)
        t2 = tensor_functor(cat, y2)
        # the value at the top object recovers Y itself
        yield f"distinctness: trial {i}", (
            t1.value(modulus) == y1 and t2.value(modulus) == y2
            and ((y1 == y2) or (t1.value(modulus) != t2.value(modulus))))
        nat = nat_transformations(t1, t2)
        yield f"nat-count: trial {i}", \
            nat.module.cardinality == hom_module(y1, y2).module.cardinality
    return _run("fully_faithful", "faithful", modulus, trials, seed, checks)


def run_all_suites(modulus: int, trials: int, seed) -> list[SuiteResult]:
    return [
        suite_coend_evaluation(modulus, trials, seed),
        suite_restriction(modulus, trials, seed),
        suite_hom_tensor(modulus, trials, seed),
        suite_dual_of_hom(modulus, trials, seed),
        suite_fully_faithful(modulus, trials, seed),
    ]
