"""Seeded random formulas, compiled and compared against the semantics.

Complements the committed corpus: the generator covers atom choices,
connective shapes and quantifier nesting the corpus may not, with sizes
kept small enough that every draw checks in well under a second.
"""

import dataclasses
import random

import pytest

from preclones.automata import boolean_alphabet, k_exists, k_mod, k_path
from preclones.compiler import check_equivalence, compile_formula
from preclones.logic import (
    And,
    FALSE,
    LeftJ,
    Less,
    Max,
    Not,
    Or,
    PSym,
    QK,
    RightJ,
    Root,
    Succ,
    TRUE,
    boolean_family,
    free_vars,
    structures,
)
from preclones.trees import alphabet

SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])


def random_atom(rng, sigma, k, scope):
    x = rng.choice(scope)
    kind = rng.randrange(8)
    if kind == 0:
        return PSym(rng.choice(sigma.names()), x)
    if kind == 1:
        return Root(x)
    if kind == 2 and len(scope) >= 2:
        return Less(x, rng.choice(scope))
    if kind == 3 and len(scope) >= 2:
        return Succ(rng.randrange(1, sigma.max_arity + 1), x, rng.choice(scope))
    if kind == 4 and k >= 1:
        return Max(rng.randrange(1, sigma.max_arity + 1), rng.randrange(1, k + 1), x)
    if kind == 5 and k >= 1:
        return LeftJ(rng.randrange(1, k + 1), x)
    if kind == 6 and k >= 1:
        return RightJ(rng.randrange(1, k + 1), x)
    return rng.choice((TRUE, FALSE, PSym(rng.choice(sigma.names()), x)))


def random_formula(rng, sigma, k, scope, depth, quant_budget):
    """A random formula with free variables inside ``scope``."""
    if depth <= 0 or (not scope and quant_budget <= 0):
        if scope:
            return random_atom(rng, sigma, k, scope)
        return rng.choice((TRUE, FALSE))
    roll = rng.randrange(10)
    if roll < 3 and quant_budget > 0:
        x = f"q{len(scope)}_{rng.randrange(1000)}"
        body = random_formula(rng, sigma, k, scope + [x], depth - 1, quant_budget - 1)
        kind = rng.randrange(3)
        if kind == 0:
            K = k_exists(boolean_alphabet(sigma.arities()), k)
            name = "ex"
        elif kind == 1:
            K = k_mod(boolean_alphabet(sigma.arities()), k, 2, rng.randrange(2))
            name = "mod2"
        else:
            K = k_path(boolean_alphabet(sigma.arities()), k)
            name = "path"
        return QK(name, K, x, boolean_family(body, sigma))
    if roll < 5:
        return Not(random_formula(rng, sigma, k, scope, depth - 1, quant_budget))
    if roll < 7 and scope:
        return random_atom(rng, sigma, k, scope)
    ctor = And if roll % 2 else Or
    return ctor(
        random_formula(rng, sigma, k, scope, depth - 1, quant_budget),
        random_formula(rng, sigma, k, scope, depth - 1, quant_budget),
    )


@pytest.mark.parametrize("seed", range(30))
def test_fuzz_rank0(seed):
    rng = random.Random(seed)
    sigma = SIG if seed % 2 else DBOOL
    phi = random_formula(rng, sigma, 0, [], depth=3, quant_budget=2)
    Y = tuple(sorted(free_vars(phi)))
    rec = compile_formula(phi, sigma, Y, 0)
    rep = check_equivalence(phi, rec, 3)
    assert rep.ok, (phi, rep.mismatches[:2])


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_rank1(seed):
    rng = random.Random(1000 + seed)
    phi = random_formula(rng, DBOOL, 1, [], depth=2, quant_budget=1)
    Y = tuple(sorted(free_vars(phi)))
    rec = compile_formula(phi, DBOOL, Y, 1)
    rep = check_equivalence(phi, rec, 3)
    assert rep.ok, (phi, rep.mismatches[:2])


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_open_formulas(seed):
    rng = random.Random(2000 + seed)
    phi = random_formula(rng, DBOOL, 0, ["z"], depth=2, quant_budget=1)
    Y = tuple(sorted(free_vars(phi) | {"z"}))
    rec = compile_formula(phi, DBOOL, Y, 0)
    rep = check_equivalence(phi, rec, 3)
    assert rep.ok, (phi, rep.mismatches[:2])


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_open_structure_gammas(seed):
    # the formulas of test_fuzz_open_formulas: the gamma value
    # check_equivalence gives each structure, which it looks up in the
    # accepting set, is gamma of the whole structure tree
    rng = random.Random(2000 + seed)
    phi = random_formula(rng, DBOOL, 0, ["z"], depth=2, quant_budget=1)
    rec = compile_formula(phi, DBOOL, tuple(sorted(free_vars(phi) | {"z"})), 0)
    seen = []

    class Recording(frozenset):
        def __contains__(self, el):
            seen.append(el)
            return frozenset.__contains__(self, el)

    check_equivalence(phi, dataclasses.replace(rec, accepting=Recording(rec.accepting)), 5)
    want = [rec.gamma.eval(s) for _, _, s in structures(DBOOL, rec.variables, 0, 5)]
    assert seen == want, phi
