"""The tree functions against the plain recursions they are written as.

Every bottom-up evaluation of a tree (rank, frontier, text, NV count,
variable shifting, composition, a morphism's value, an automaton run) is
the unique extension of a map on letters.  The references below are the
hand-written recursions over ``RankedTree.children``; each library
function must agree with its reference on every tree of
``enumerate_trees`` over three alphabets, at ranks 0-2 up to 4 NV nodes.
"""

import os
import random

import pytest

from preclones.automata import random_automaton
from preclones.preclone import transformation_pgpair
from preclones.trees import (
    RankedTree,
    alphabet,
    compose,
    count_nv,
    enumerate_trees,
    fold,
    load_alphabet,
    rank,
    shift_vars,
    tree_to_text,
    variables_in_order,
)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
ALPHABETS = {
    "sigma_ex": load_alphabet(os.path.join(CORPUS, "sigma_ex.alph")),
    "dbool": load_alphabet(os.path.join(CORPUS, "dbool.alph")),
    "unary_ternary": alphabet("g/1", "h/3", "a/0", "b/0"),
}
MAX_NV = 4


def trees_of(name, k):
    return list(enumerate_trees(ALPHABETS[name], k, MAX_NV))


CASES = [pytest.param(name, k, id=f"{name}-{k}") for name in ALPHABETS for k in (0, 1, 2)]


# ---------------------------------------------------------------------------
# the references: one recursion over the children each


def reference_rank(t):
    if t.is_var():
        return 1
    return sum(reference_rank(c) for c in t.children)


def reference_variables_in_order(t):
    if t.is_var():
        return [t.label]
    out = []
    for c in t.children:
        out.extend(reference_variables_in_order(c))
    return out


def reference_tree_to_text(t):
    if t.is_var():
        return f"v{t.label}"
    if not t.children:
        return str(t.label)
    return f"{t.label}({','.join(reference_tree_to_text(c) for c in t.children)})"


def reference_count_nv(t):
    if t.is_var():
        return 0
    return 1 + sum(reference_count_nv(c) for c in t.children)


def reference_shift_vars(t, offset):
    if offset == 0:
        return t
    if t.is_var():
        return RankedTree(t.label + offset)
    return RankedTree(t.label, tuple(reference_shift_vars(c, offset) for c in t.children))


def reference_compose(f, gs):
    gs = tuple(gs)
    assert reference_rank(f) == len(gs)
    offsets = [0]
    for g in gs:
        offsets.append(offsets[-1] + reference_rank(g))

    def subst(s):
        if s.is_var():
            return reference_shift_vars(gs[s.label - 1], offsets[s.label - 1])
        return RankedTree(s.label, tuple(subst(c) for c in s.children))

    return subst(f)


def reference_eval(morphism, t):
    if t.is_var():
        return morphism.target.unit
    imgs = [reference_eval(morphism, c) for c in t.children]
    return morphism.target.compose(morphism.image[t.label], imgs)


def reference_run(a, t):
    if t.is_var():
        if not 1 <= t.label <= a.rank:
            raise ValueError(f"variable v{t.label} outside rank {a.rank}")
        return a.var_state[t.label - 1]
    states = tuple(reference_run(a, c) for c in t.children)
    try:
        return a.transitions[t.label][states]
    except KeyError:
        raise ValueError(f"symbol {t.label!r} not in automaton alphabet") from None


# ---------------------------------------------------------------------------
# each function equals its reference


def rebuild(label, kids):
    return RankedTree(label, tuple(kids))


@pytest.mark.parametrize("name,k", CASES)
def test_fold_with_the_constructors_rebuilds_the_tree(name, k):
    for t in trees_of(name, k):
        assert fold(t, RankedTree, rebuild) == t


@pytest.mark.parametrize("name,k", CASES)
def test_tree_measures_match_the_recursions(name, k):
    ts = trees_of(name, k)
    assert ts
    for t in ts:
        assert rank(t) == reference_rank(t) == k
        assert variables_in_order(t) == reference_variables_in_order(t)
        assert tree_to_text(t) == reference_tree_to_text(t)
        assert count_nv(t) == reference_count_nv(t)
        for offset in (0, 1, 3):
            assert shift_vars(t, offset) == reference_shift_vars(t, offset)


@pytest.mark.parametrize("name,k", CASES)
def test_compose_matches_the_recursion(name, k):
    rng = random.Random(17 + k)
    pool = [t for r in (0, 1, 2) for t in trees_of(name, r)]
    for f in trees_of(name, k):
        for _ in range(3):
            gs = [rng.choice(pool) for _ in range(k)]
            assert compose(f, gs) == reference_compose(f, gs)


@pytest.mark.parametrize("name,k", CASES)
def test_morphism_eval_and_run_match_the_recursions(name, k):
    alph = ALPHABETS[name]
    rng = random.Random(29 + k)
    for seed_automaton in (random_automaton(alph, 0, 2, rng), random_automaton(alph, 0, 2, rng)):
        tau = transformation_pgpair(seed_automaton, 3, eval_cap=2).morphism
        a = random_automaton(alph, k, 3, rng)
        for t in trees_of(name, k):
            assert tau.eval(t) == reference_eval(tau, t)
            assert a.run(t) == reference_run(a, t)


def test_run_pins_its_two_errors():
    alph = ALPHABETS["sigma_ex"]
    a = random_automaton(alph, 1, 2, random.Random(3))
    outside = RankedTree("f", (RankedTree(1), RankedTree(2)))
    with pytest.raises(ValueError, match=r"^variable v2 outside rank 1$"):
        a.run(outside)
    with pytest.raises(ValueError, match=r"^variable v2 outside rank 1$"):
        reference_run(a, outside)
    unknown = RankedTree("f", (RankedTree("z"), RankedTree(1)))
    with pytest.raises(ValueError, match=r"^symbol 'z' not in automaton alphabet$"):
        a.run(unknown)
    with pytest.raises(ValueError, match=r"^symbol 'z' not in automaton alphabet$"):
        reference_run(a, unknown)
