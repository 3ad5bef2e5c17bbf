import inspect
import itertools
import os
import random
import textwrap

import pytest

from preclones import automata, compiler, preclone
from preclones.automata import (
    boolean_alphabet,
    k_exists,
    k_forall_next,
    k_mod,
    k_path,
    load_automaton,
    random_automaton,
)
from preclones.blockprod import block_product_pg
from preclones.cli import load_formula_file
from preclones.errors import BudgetExceeded, NotACongruence, ParseError, RankOverflow
from preclones.logic import free_vars
from preclones.preclone import (
    DEFAULT_BUDGET,
    accepting_elements,
    apply_transformation,
    check_axioms,
    direct_product,
    dump_preclone,
    el_token,
    load_preclone,
    quotient,
    sub_pgpair_generated,
    t_exists,
    t_mod,
    transformation_pgpair,
)
from preclones.trees import UNIT, alphabet, enumerate_trees, parse_tree

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])


def OR(n):
    return (n, 0)


def TRUE(n):
    return (n, 1)


def test_t_exists_sort_sizes():
    S = t_exists(3).preclone
    assert [S.sort_size(n) for n in range(4)] == [2, 2, 2, 2]


def test_t_exists_unit_is_or1():
    S = t_exists(3).preclone
    assert S.unit == OR(1)
    assert S.describe(OR(0)) == "false_0"
    assert S.describe(TRUE(2)) == "true_2"


def test_compose_unit_law():
    S = t_exists(3).preclone
    for el in S.elements():
        assert S.compose(S.unit, (el,)) == el


def test_or2_truth_table():
    S = t_exists(3).preclone
    assert S.compose(OR(2), (TRUE(0), OR(0))) == TRUE(0)
    assert S.compose(OR(2), (OR(0), OR(0))) == OR(0)


def test_true2_constant():
    S = t_exists(3).preclone
    assert S.compose(TRUE(2), (OR(0), OR(0))) == TRUE(0)


def test_or1_identity_true1_absorbing():
    # the rank-1 monoid is U_1: or_1 neutral, true_1 absorbing
    S = t_exists(3).preclone
    assert S.compose(OR(1), (OR(1),)) == OR(1)
    assert S.compose(OR(1), (TRUE(1),)) == TRUE(1)
    assert S.compose(TRUE(1), (OR(1),)) == TRUE(1)
    assert S.compose(TRUE(1), (TRUE(1),)) == TRUE(1)


def test_t_mod_sort_sizes():
    for p in (2, 3):
        S = t_mod(p, 3).preclone
        assert all(S.sort_size(n) == p for n in range(4))


def test_t_mod_increment_composition():
    for p in (2, 3, 5):
        S = t_mod(p, 3).preclone
        assert S.compose((1, 1), ((1, 1),)) == (1, 2 % p)


def test_t_mod_binary_sum():
    p = 3
    S = t_mod(p, 3).preclone
    for r in range(p):
        for r2 in range(p):
            assert S.compose((2, 0), ((0, r), (0, r2))) == (0, (r + r2) % p)


def test_compose_checks_survive_a_warm_memo():
    S = t_exists(3).preclone
    assert check_axioms(S).ok
    warm = list(S._memo)
    assert warm
    for f, gs in warm:
        if gs:
            with pytest.raises(ValueError, match="width mismatch"):
                S.compose(f, gs[:-1])
        with pytest.raises(ValueError, match="width mismatch"):
            S.compose(f, gs + (S.unit,))
    with pytest.raises(RankOverflow):
        S.compose(OR(2), (TRUE(2), TRUE(2)))
    with pytest.raises(RankOverflow):
        S.compose(OR(2), (S.unit, TRUE(3)))


def test_rank_overflow():
    S = t_exists(2).preclone
    with pytest.raises(RankOverflow):
        S.compose(OR(2), (TRUE(2), TRUE(1)))


def test_compose_in_t2_parity():
    S = t_mod(2, 3).preclone
    assert S.compose((2, 0), ((0, 1), (0, 1))) == (0, 0)


def test_transformation_pgpair_of_k_exists_isomorphic_to_t_exists():
    res = transformation_pgpair(k_exists(DBOOL, 0), 3)
    S = res.pgpair.preclone
    assert [S.sort_size(n) for n in range(4)] == [2, 2, 2, 2]
    from preclones.syntactic import isomorphic

    assert isomorphic(S, t_exists(3).preclone)
    # morphism image: 1_n acts as true_n, 0_n as or_n
    img = res.morphism.image
    n_states, table = S.key(img["1_2"])
    assert all(v == 1 for v in table)


def test_transformation_rank0_equals_run():
    a = k_mod(DBOOL, 0, 3, 1)
    res = transformation_pgpair(a, 3)
    for t in enumerate_trees(DBOOL, 0, 3):
        el = res.morphism.eval(t)
        assert apply_transformation(res.pgpair.preclone, el, ()) == a.run(t)


def test_transformation_word_alphabet_transition_monoid():
    # all arities 1: rank-1 sort is the transition monoid
    AB = alphabet("c/1", "d/1")
    trans = {"c": {(0,): 1, (1,): 0}, "d": {(0,): 0, (1,): 0}}
    from preclones.automata import TreeAutomaton

    a = TreeAutomaton(AB, 1, 2, (0,), trans, frozenset({1}))
    res = transformation_pgpair(a, 2)
    S = res.pgpair.preclone
    # monoid generated by the swap and the constant-0 map: id, swap, const0, const1
    assert S.sort_size(1) == 4
    assert S.sort_size(0) == 0


def test_morphism_eval_unit():
    res = transformation_pgpair(k_exists(DBOOL, 0), 3)
    assert res.morphism.eval(UNIT) == res.pgpair.preclone.unit


def test_morphism_eval_example():
    res = transformation_pgpair(k_exists(DBOOL, 0), 3)
    S = res.pgpair.preclone
    t = parse_tree("0_2(1_0,0_0)", DBOOL)
    el = res.morphism.eval(t)
    assert apply_transformation(S, el, ()) == 1  # lands in the 'seen a one' state


def test_morphism_is_homomorphic_random():
    rng = random.Random(11)
    a = random_automaton(SIG, 0, 2, rng)
    res = transformation_pgpair(a, 3)
    trees0 = list(enumerate_trees(SIG, 0, 3))
    trees1 = list(enumerate_trees(SIG, 1, 3))
    from preclones.trees import compose as tcompose

    for _ in range(50):
        f = trees1[rng.randrange(len(trees1))]
        g = trees0[rng.randrange(len(trees0))]
        lhs = res.morphism.eval(tcompose(f, (g,)))
        rhs = res.pgpair.preclone.compose(
            res.morphism.eval(f), (res.morphism.eval(g),)
        )
        assert lhs == rhs


def test_morphism_is_homomorphic_exhaustive():
    # phi(f . g) = phi(f) . phi(g) over all composable pairs with <= 3 NV
    a = k_mod(DBOOL, 0, 2, 1)
    res = transformation_pgpair(a, 3)
    S = res.pgpair.preclone
    from preclones.trees import compose as tcompose

    pool = {r: list(enumerate_trees(DBOOL, r, 3)) for r in (0, 1, 2)}
    for f in pool[1]:
        for g in pool[0] + pool[1]:
            lhs = res.morphism.eval(tcompose(f, (g,)))
            rhs = S.compose(
                res.morphism.eval(f), (res.morphism.eval(g),)
            )
            assert lhs == rhs
    for f in pool[2][:12]:
        for g1 in pool[0][:4]:
            for g2 in pool[1][:4]:
                lhs = res.morphism.eval(tcompose(f, (g1, g2)))
                rhs = S.compose(
                    res.morphism.eval(f),
                    (res.morphism.eval(g1), res.morphism.eval(g2)),
                )
                assert lhs == rhs


def test_accepting_elements_decide_language():
    a = k_exists(DBOOL, 0)
    res = transformation_pgpair(a, 3)
    P = accepting_elements(res)
    for t in enumerate_trees(DBOOL, 0, 4):
        assert (res.morphism.eval(t) in P) == a.accepts(t)


def full_product(factors):
    """The direct product generated from every pair of same-rank elements."""
    letters = [(pair, n, pair) for n in range(factors[0].trunc + 1)
               for pair in itertools.product(*(S.sort(n) for S in factors))]
    return preclone.generated(direct_product(factors), letters)[0].preclone


def test_direct_product_holds_only_its_unit():
    S, T = t_exists(3).preclone, t_mod(2, 3).preclone
    P = direct_product([S, T])
    assert P.size() == 1
    assert P.key(P.unit) == (S.unit, T.unit)


def test_direct_product_sizes_and_unit():
    # generated from every pair of same-rank elements: the cartesian sorts
    S, T = t_exists(3).preclone, t_mod(2, 3).preclone
    P = full_product([S, T])
    for n in range(4):
        assert {P.key(el) for el in P.sort(n)} == set(itertools.product(S.sort(n), T.sort(n)))
    assert P.key(P.unit) == (S.unit, T.unit)


def test_direct_product_componentwise_random():
    T = t_mod(2, 3).preclone
    P = full_product([T, T])
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(0, 3)
        f = P.sort(n)[rng.randrange(P.sort_size(n))]
        ranks = [rng.randrange(0, 2) for _ in range(n)]
        if sum(ranks) > 3:
            continue
        gs = tuple(P.sort(r)[rng.randrange(P.sort_size(r))] for r in ranks)
        got = P.compose(f, gs)
        for i in range(2):
            want = T.compose(
                P.key(f)[i], [P.key(g)[i] for g in gs]
            )
            assert P.key(got)[i] == want


def fresh_transformation_preclone(automaton):
    """A trunc-2 transformation preclone holding only its unit."""
    return preclone._new_transformation_preclone(automaton.n_states, 2)


def transformation_letters(automaton, names):
    n = automaton.n_states
    arity = automaton.alphabet.arity
    return [
        (name, arity[name], preclone.transformation_key(
            n, arity[name], automaton.transitions[name].__getitem__))
        for name in names
    ]


def test_generated_interns_in_the_order_of_its_letters():
    a = k_mod(DBOOL, 0, 2, 1)
    names = [name for name, _ in reversed(DBOOL.symbols)]
    letters = transformation_letters(a, names)
    pg, image = preclone.generated(fresh_transformation_preclone(a), letters)
    pre = pg.preclone
    assert list(image) == names
    assert pg.generators == list(dict.fromkeys(image.values()))
    for n in range(pre.trunc + 1):
        firsts = list(dict.fromkeys(key for _, m, key in letters if m == n))
        skip = 1 if n == 1 else 0  # the unit was interned before the letters
        assert [pre.key(el) for el in pre.sort(n)][skip : skip + len(firsts)] == firsts
    for name, m, key in letters:
        assert image[name] == pre.lookup(m, key)


def test_generated_dedupes_generators_but_maps_every_name():
    a = k_exists(DBOOL, 0)
    (_, m, key), = transformation_letters(a, ["1_0"])
    pg, image = preclone.generated(
        fresh_transformation_preclone(a), [("p", m, key), ("q", m, key)])
    assert pg.generators == [(0, 0)]
    assert image == {"p": (0, 0), "q": (0, 0)}


def test_generated_cap_none_is_the_truncation():
    for a in (k_exists(DBOOL, 0), k_mod(DBOOL, 0, 2, 1), k_path(DBOOL, 0)):
        letters = transformation_letters(a, [name for name, _ in DBOOL.symbols])
        full, _ = preclone.generated(fresh_transformation_preclone(a), letters)
        at_trunc, _ = preclone.generated(fresh_transformation_preclone(a), letters, cap=2)
        assert keys_by_rank(full.preclone) == keys_by_rank(at_trunc.preclone)


def test_sub_generated_by_nothing():
    S = t_exists(3).preclone
    sub = sub_pgpair_generated(S, [])
    assert sub.preclone.sort_size(1) == 1  # just the unit
    assert sub.preclone.sort_size(0) == 0


def test_sub_generated_regenerates_t_exists():
    pg = t_exists(3)
    sub = sub_pgpair_generated(pg.preclone, pg.generators)
    assert [sub.preclone.sort_size(n) for n in range(4)] == [2, 2, 2, 2]


def test_sub_generated_closed():
    pg = t_mod(3, 3)
    sub = sub_pgpair_generated(pg.preclone, pg.generators)
    S = sub.preclone
    for f, gs in S.iter_compositions():
        S.compose(f, gs)  # raises if the carrier were not closed


def identity_partition(S):
    return [[[el] for el in S.sort(n)] for n in range(S.trunc + 1)]


def total_partition(S):
    return [[S.sort(n)] if S.sort_size(n) else [] for n in range(S.trunc + 1)]


def test_quotient_identity():
    S = t_exists(3).preclone
    Q, proj = quotient(S, identity_partition(S))
    assert [Q.sort_size(n) for n in range(4)] == [2, 2, 2, 2]
    assert check_axioms(Q).ok


def test_quotient_total():
    S = t_mod(2, 3).preclone
    Q, proj = quotient(S, total_partition(S))
    assert all(Q.sort_size(n) == 1 for n in range(4))
    assert check_axioms(Q).ok


def test_quotient_rejects_non_congruence():
    S = t_mod(3, 3).preclone
    # merge f_{0,0} with f_{0,1} but keep rank-1 distinctions: not stable
    blocks = identity_partition(S)
    blocks[0] = [[(0, 0), (0, 1)], [(0, 2)]]
    with pytest.raises(NotACongruence) as exc:
        quotient(S, blocks)
    assert exc.value.witness is not None


def test_check_axioms_t_exists():
    rep = check_axioms(t_exists(3).preclone)
    assert rep.ok
    assert rep.assoc_checked > 0


def test_check_axioms_t_mod():
    assert check_axioms(t_mod(2, 3).preclone).ok
    assert check_axioms(t_mod(3, 3).preclone).ok


def test_check_axioms_detects_fault():
    # corrupt a composition table entry via a wrapper raw-compose
    pg = t_exists(2)
    S = pg.preclone

    import preclones.preclone as P

    def bad_compose(fkey, gkeys):
        key = P._transformation_compose(fkey, gkeys)
        if len(gkeys) == 1 and len(gkeys[0][1]) == 1:  # rank-1 f, rank-0 g
            n, table = key
            return (n, tuple(1 - v for v in table))
        return key

    bad = P.FinitaryPreclone(2, bad_compose, None)
    bad.set_unit(bad.intern(1, P.identity_key(2)))
    for n in range(3):
        bad.intern(n, P.transformation_key(2, n, lambda c: 1 if any(c) else 0))
        bad.intern(n, P.transformation_key(2, n, lambda c: 1))
    rep = check_axioms(bad)
    assert not rep.ok


def test_check_axioms_sampled():
    rep = check_axioms(t_mod(3, 3).preclone, mode="sampled", samples=200, seed=5)
    assert rep.ok and rep.assoc_checked == 200


def test_dump_roundtrip():
    pg = t_exists(3)
    text = dump_preclone(pg.preclone, pg.generators)
    S2, gens = load_preclone(text)
    assert [S2.sort_size(n) for n in range(4)] == [2, 2, 2, 2]
    assert gens == pg.generators
    assert check_axioms(S2).ok
    assert dump_preclone(S2, gens) == text


def test_transformation_pgpair_trunc_guard():
    with pytest.raises(RankOverflow):
        transformation_pgpair(k_exists(DBOOL, 0), 1)


# ---------------------------------------------------------------------------
# the closure against the two routines it replaced


def reference_compose(pre, f, gs):
    m = sum(g[0] for g in gs)
    key = pre._compose_raw(pre.key(f), [pre.key(g) for g in gs])
    return pre.intern(m, key)


def reference_close_under_composition(pre, budget=DEFAULT_BUDGET):
    """The former full closure: a worklist of single-slot compositions."""
    work = list(pre.elements())
    seen = set(work)
    pos = 0
    while pos < len(work):
        e = work[pos]
        pos += 1
        snapshot = list(pre.elements())
        for other in snapshot:
            for head, arg in ((e, other), (other, e)):
                n = head[0]
                if n == 0:
                    continue
                m = n - 1 + arg[0]
                if m > pre.trunc:
                    continue
                for slot in range(n):
                    args = (pre.unit,) * slot + (arg,) + (pre.unit,) * (n - 1 - slot)
                    got = reference_compose(pre, head, args)
                    if got not in seen:
                        seen.add(got)
                        work.append(got)
                        if pre.size() > budget:
                            raise BudgetExceeded(
                                f"closure exceeded {budget} elements"
                            )
    return pre


def reference_close_for_evaluation(pre, cap, budget=DEFAULT_BUDGET):
    """The former evaluation closure: recompose every tuple each round."""
    while True:
        size_before = pre.size()
        for f in list(pre.elements()):
            for ranks in pre.tuple_shapes(f[0], cap):
                pools = [pre.sort(r) for r in ranks]
                if any(not p for p in pools):
                    continue
                for gs in itertools.product(*pools):
                    reference_compose(pre, f, gs)
        if pre.size() > budget:
            raise BudgetExceeded(f"evaluation closure exceeded {budget} elements")
        if pre.size() == size_before:
            return pre


def reference_closure(pre, cap, budget=DEFAULT_BUDGET):
    """The former routines, chosen as the callers used to choose: the full
    closure at the truncation, the evaluation closure below it."""
    if cap == pre.trunc:
        return reference_close_under_composition(pre, budget)
    return reference_close_for_evaluation(pre, cap, budget)


def keys_by_rank(pre):
    return [{pre.key(el) for el in pre.sort(n)} for n in range(pre.trunc + 1)]


def assert_closure_matches_references(build):
    """build() closes a carrier; the references must reach the same keys.

    Every generated pg-pair is closed by ``preclone.generated``, which
    reads ``close_for_evaluation`` from the preclone module, so that is
    the one name patched."""
    got = keys_by_rank(build())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preclone, "close_for_evaluation", reference_closure)
        want = keys_by_rank(build())
    assert got == want


NAMED_AUTOMATA = (
    k_exists(DBOOL, 0),
    k_mod(DBOOL, 0, 2, 1),
    k_path(DBOOL, 0),
    k_forall_next(DBOOL, 0),
)
RANDOM_AUTOMATA = tuple(
    random_automaton(DBOOL, 0, 2, random.Random(seed)) for seed in range(6)
)
CAPS = (0, 1, None)


def check_closures_against_references():
    for cap in CAPS:
        for a in NAMED_AUTOMATA + RANDOM_AUTOMATA:
            assert_closure_matches_references(
                lambda: transformation_pgpair(a, 2, eval_cap=cap).pgpair.preclone
            )

    # a direct product's sub-pg-pair, as the compiler's _combine builds it
    for a1, a2 in ((k_exists(DBOOL, 1), k_mod(DBOOL, 1, 2, 1)),
                   (k_path(DBOOL, 1), k_forall_next(DBOOL, 1))):
        for k in (0, 1):
            r1 = transformation_pgpair(a1, 2, eval_cap=k)
            r2 = transformation_pgpair(a2, 2, eval_cap=k)
            letters = [(name, m, (r1.morphism(name), r2.morphism(name)))
                       for name, m in DBOOL.symbols]
            assert_closure_matches_references(lambda: preclone.generated(
                direct_product([r1.pgpair.preclone, r2.pgpair.preclone]), letters, k
            )[0].preclone)

    pg = t_exists(2)
    assert_closure_matches_references(
        lambda: block_product_pg(pg, pg, 0, trunc=2)[1].preclone
    )


def test_closures_match_references():
    check_closures_against_references()


def one_round_explore(alphabet, seeds, step, grade=None, cap=0):
    """A corrupted explore that stops after its first round."""
    seeds = list(seeds)
    for name, m in alphabet.symbols:
        for combo in itertools.product(seeds, repeat=m):
            step(name, combo)
    return set(seeds), {}


def test_one_round_closure_is_caught(monkeypatch):
    monkeypatch.setattr(preclone, "explore", one_round_explore)
    with pytest.raises(AssertionError):
        check_closures_against_references()


@pytest.mark.parametrize("shift", [1, -1])
def test_off_by_one_cap_is_caught(monkeypatch, shift):
    def shifted(alphabet, seeds, step, grade=None, cap=0):
        return automata.explore(alphabet, seeds, step, grade, cap + shift)

    monkeypatch.setattr(preclone, "explore", shifted)
    with pytest.raises(AssertionError):
        check_closures_against_references()


def assert_closure_wrote_through(pre, letters, cap):
    """Every in-cap (f, gs) over the closure's letters is a memo hit, and
    every memo entry is what the raw composition gives."""
    raw = pre._compose_raw
    calls = []

    def counting(*args):
        calls.append(args)
        return raw(*args)

    pre._compose_raw = counting
    for f in letters:
        for gs in pre.iter_tuples(f[0], cap):
            pre.compose(f, gs)
    assert calls == []
    for (f, gs), el in pre._memo.items():
        key = raw(pre.key(f), [pre.key(g) for g in gs])
        assert pre.lookup(sum(g[0] for g in gs), key) == el


def test_closure_writes_through_to_the_compose_memo():
    for cap in (0, 1, 2):
        for a in NAMED_AUTOMATA + RANDOM_AUTOMATA:
            pg = transformation_pgpair(a, 2, eval_cap=cap).pgpair
            letters = [pg.preclone.unit] + pg.generators
            assert_closure_wrote_through(pg.preclone, letters, cap)

    pg = t_exists(2)
    bp, carrier = block_product_pg(pg, pg, 0, trunc=2)
    gen_keys = [carrier.preclone.key(g) for g in carrier.generators]
    for cap in (0, 1, 2):
        sub = bp.carrier_pgpair(gen_keys, eval_cap=cap)
        letters = [sub.preclone.unit] + sub.generators
        assert_closure_wrote_through(sub.preclone, letters, cap)


def test_budget_reaches_every_closure_caller():
    size = transformation_pgpair(k_exists(DBOOL, 0), 3).pgpair.preclone.size()
    transformation_pgpair(k_exists(DBOOL, 0), 3, budget=size)
    with pytest.raises(BudgetExceeded):
        transformation_pgpair(k_exists(DBOOL, 0), 3, budget=size - 1)

    pg = t_mod(3, 3)
    size = sub_pgpair_generated(pg.preclone, pg.generators).preclone.size()
    sub_pgpair_generated(pg.preclone, pg.generators, budget=size)
    with pytest.raises(BudgetExceeded):
        sub_pgpair_generated(pg.preclone, pg.generators, budget=size - 1)

    pg = t_exists(2)
    bp, carrier = block_product_pg(pg, pg, 0, trunc=2)
    gen_keys = [carrier.preclone.key(g) for g in carrier.generators]
    size = carrier.preclone.size()
    # below size - 1 generators, so block_product_pg's generator count
    # check passes and the raise comes from the closure
    assert len(gen_keys) < size - 1
    bp.carrier_pgpair(gen_keys, budget=size)
    with pytest.raises(BudgetExceeded):
        bp.carrier_pgpair(gen_keys, budget=size - 1)
    with pytest.raises(BudgetExceeded):
        block_product_pg(pg, pg, 0, trunc=2, budget=size - 1)


# ---------------------------------------------------------------------------
# the exhaustive axiom check against the triple walk it replaced


def reference_check_axioms(S):
    """The former exhaustive mode: walk every triple (f, gs, hs)."""
    report = preclone.AxiomReport()
    for el in S.elements():
        if S.compose(S.unit, (el,)) != el:
            report.violations.append(("unit-left", el))
        if S.compose(el, (S.unit,) * el[0]) != el:
            report.violations.append(("unit-right", el))
        report.unit_checked += 1
    for f, gs in S.iter_compositions():
        m = sum(g[0] for g in gs)
        for hs in S.iter_tuples(m):
            lhs, rhs = preclone._assoc_instance(S, f, gs, hs)
            if lhs != rhs:
                report.violations.append(("assoc", f, gs, hs))
            report.assoc_checked += 1
    return report


def assert_agrees_with_reference(S_fresh):
    """Both checks on two fresh copies; returns the new check's report."""
    got = check_axioms(S_fresh())
    want = reference_check_axioms(S_fresh())
    assert (got.ok, got.unit_checked, got.assoc_checked) == (
        want.ok, want.unit_checked, want.assoc_checked)
    if all(v[0] == "assoc" for v in want.violations):
        assert set(got.violations) <= set(want.violations)
    return got


def random_carrier(states, seed):
    """A criterion-1 random automaton's preclone at trunc 3."""
    a = random_automaton(SIG, 0, states, random.Random(seed))
    return transformation_pgpair(a, 3).pgpair.preclone


AXIOM_TARGETS = {
    "t_exists(2)": lambda: t_exists(2).preclone,
    "t_exists(3)": lambda: t_exists(3).preclone,
    "t_mod(2, 3)": lambda: t_mod(2, 3).preclone,
    "t_mod(3, 3)": lambda: t_mod(3, 3).preclone,
    **{f"random({states}, {seed})": lambda states=states, seed=seed: random_carrier(states, seed)
       for states, seed in ((2, 16), (2, 3), (3, 41), (3, 185), (3, 249))},
    "k_exists0": lambda: transformation_pgpair(
        load_automaton(os.path.join(CORPUS, "k_exists0.aut")), 3).pgpair.preclone,
    "k_path0": lambda: transformation_pgpair(
        load_automaton(os.path.join(CORPUS, "k_path0.aut")), 2).pgpair.preclone,
}


@pytest.mark.parametrize("name", sorted(AXIOM_TARGETS))
def test_exhaustive_check_matches_triple_walk(name):
    assert assert_agrees_with_reference(AXIOM_TARGETS[name]).ok


def comp_lines(text):
    return [i for i, line in enumerate(text.splitlines()) if line.startswith("comp ")]


def with_results_moved(text, picked):
    """The dump with the result of each picked comp line moved on by one."""
    lines = text.splitlines()
    sizes = {int(l.split()[1]): int(l.split()[2]) for l in lines if l.startswith("sort ")}
    for i in picked:
        before, _, result = lines[i].rpartition(" -> ")
        rank, index = map(int, result.split("."))
        lines[i] = f"{before} -> {rank}.{(index + 1) % sizes[rank]}"
    return "\n".join(lines) + "\n"


def test_every_single_corruption_of_t_exists2_agrees():
    text = dump_preclone(t_exists(2).preclone)
    for i in comp_lines(text):
        bad = with_results_moved(text, [i])
        assert not assert_agrees_with_reference(lambda: load_preclone(bad)[0]).ok


@pytest.mark.parametrize("entries", [2, 3])
def test_seeded_corruptions_of_t_mod_agree(entries):
    text = dump_preclone(t_mod(2, 2).preclone)
    rng = random.Random(entries)
    for _ in range(60):
        picked = rng.sample(comp_lines(text), entries)
        bad = with_results_moved(text, picked)
        assert_agrees_with_reference(lambda: load_preclone(bad)[0])


def test_every_composition_is_evaluated():
    for S in (t_exists(2).preclone, random_carrier(3, 41)):
        text = dump_preclone(S)
        loaded, _ = load_preclone(text)
        check_axioms(loaded)
        assert set(loaded._memo) == set(loaded.iter_compositions())
    text = dump_preclone(t_exists(2).preclone)
    lines = text.splitlines()
    for i in comp_lines(text):
        S, _ = load_preclone("\n".join(lines[:i] + lines[i + 1:]) + "\n")
        with pytest.raises(ParseError):
            check_axioms(S)


@pytest.mark.parametrize("old,new", [
    ("comp 0: 0.0 () -> 0.0\n", "comp 0: 0.0 () -> 0.5\n"),
    ("comp 0: 0.0 () -> 0.0\n", "comp 0: 3.0 () -> 0.0\n"),
    ("comp 1: 1.0 (0.0) -> 0.0\n", "comp 1: 1.0 (0.4) -> 0.0\n"),
])
def test_load_preclone_rejects_comp_tokens_outside_the_sorts(old, new):
    pg = t_exists(2)
    text = dump_preclone(pg.preclone, pg.generators)
    assert text.count(old) == 1
    with pytest.raises(ParseError):
        load_preclone(text.replace(old, new))


GOLDEN_T_EXISTS2 = os.path.join(os.path.dirname(__file__), "golden", "t_exists2.pre")


@pytest.mark.parametrize("old,new,cause", [
    # a second, contradictory line for the same (f, gs)
    ("comp 1: 1.0 (0.0) -> 0.0\n",
     "comp 1: 1.0 (0.0) -> 0.0\ncomp 1: 1.0 (0.0) -> 0.1\n", "second comp line"),
    # result rank 1, argument ranks summing to 0
    ("comp 1: 1.0 (0.0) -> 0.0\n", "comp 1: 1.0 (0.0) -> 1.0\n", "ranks' sum"),
    # argument count differs from the head's rank, then from the prefix
    ("comp 1: 1.0 (0.0) -> 0.0\n", "comp 1: 1.0 (0.0 0.0) -> 0.0\n", "arguments"),
    ("comp 1: 1.0 (0.0) -> 0.0\n", "comp 2: 1.0 (0.0) -> 0.0\n", "arguments"),
])
def test_load_preclone_rejects_an_inconsistent_comp_line(old, new, cause):
    with open(GOLDEN_T_EXISTS2) as fh:
        text = fh.read()
    assert text.count(old) == 1
    load_preclone(text)
    # the error names the last line of the replacement
    lineno = text[: text.index(old)].count("\n") + new.count("\n")
    with pytest.raises(ParseError, match=f"dump line {lineno}: .*{cause}"):
        load_preclone(text.replace(old, new))


FAMILY_LINES = {
    "D": "if cur != S.compose(f, gs):",
    "SEQ": "if o(fg, i + j, h) != o(f, i, o(g, j, h)):  # SEQ",
    "PAR": "if o(fg, j - 1 + g[0], h) != o(fh, i, g):  # PAR",
}
# single-entry corruptions of random(3, 41)'s carrier that keep the unit
# laws and that one family alone catches: a composition f.(gs) and its new
# result, each element given by its rank and transformation table
RANDOM_41 = {
    "a": (0, (1,)),
    "1": (1, (0, 1, 2)),
    "c": (1, (1, 1, 1)),
    "f": (2, (1, 1, 0, 0, 1, 2, 2, 1, 2)),
    "h": (3, (0, 1, 2, 0, 1, 2, 1, 1, 0, 1, 1, 0, 0, 1, 2,
              2, 1, 2, 2, 1, 2, 0, 1, 2, 2, 1, 2)),
}
ONLY_CAUGHT_BY = {
    "D": ("f", "ac", "1"),
    "SEQ": ("h", "c11", "h"),
    "PAR": ("h", "11c", "h"),
}


def without_family(family):
    source = textwrap.dedent(inspect.getsource(preclone._assoc_witnesses))
    assert source.count(FAMILY_LINES[family]) == 1
    namespace = dict(vars(preclone))
    exec(source.replace(FAMILY_LINES[family], "if False:"), namespace)
    return namespace["_assoc_witnesses"]


@pytest.mark.parametrize("family", sorted(ONLY_CAUGHT_BY))
def test_each_family_alone_catches_a_corruption(monkeypatch, family):
    S = random_carrier(3, 41)
    el = {name: S.lookup(rank, (3, table)) for name, (rank, table) in RANDOM_41.items()}
    f, gs, result = ONLY_CAUGHT_BY[family]
    prefix = f"comp {len(gs)}: {el_token(el[f])} ({' '.join(el_token(el[g]) for g in gs)}) -> "
    result = el_token(el[result])
    lines = dump_preclone(S).splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    assert lines[i] != prefix + result
    lines[i] = prefix + result
    bad = "\n".join(lines) + "\n"
    assert not reference_check_axioms(load_preclone(bad)[0]).ok
    rep = check_axioms(load_preclone(bad)[0])
    assert not rep.ok and all(v[0] == "assoc" for v in rep.violations)
    mutants = {removed: without_family(removed) for removed in FAMILY_LINES}
    for removed, mutant in mutants.items():
        monkeypatch.setattr(preclone, "_assoc_witnesses", mutant)
        assert check_axioms(load_preclone(bad)[0]).ok == (removed == family)


def test_par_on_adjacent_slots_catches_a_toy():
    """Constants a and b, the unit and f of rank 2 with f o_i a = f o_i b = 1
    and f.(g, h) = h: D holds, SEQ has no instance, and PAR on slots 0 < 1
    fails, since (f o_0 a) o_0 b = b but (f o_1 b) o_0 a = a."""

    def compose_raw(fkey, args):
        if fkey != "f":
            return args[0] if args else fkey
        plugged = [k for k in args if k != "1"]
        if not plugged:
            return "f"
        if len(plugged) == 1:
            return "1"
        return "f" if "f" in plugged else args[1]

    S = preclone.FinitaryPreclone(2, compose_raw)
    S.set_unit(S.intern(1, "1"))
    for rank, key in ((0, "a"), (0, "b"), (2, "f")):
        S.intern(rank, key)
    want = reference_check_axioms(S)
    assert not want.ok and all(v[0] == "assoc" for v in want.violations)
    got = check_axioms(S)
    assert not got.ok and set(got.violations) <= set(want.violations)


# ---------------------------------------------------------------------------
# transformation composition against the product walk it replaced


def reference_transformation_compose(fkey, frank, gkeys):
    """The former walk: every state combination of the result's arguments,
    each g-index and then the f-index rebuilt digit by digit."""
    n_states, ftable = fkey
    m = sum(grank for _, grank in gkeys)
    out = []
    for combo in itertools.product(range(n_states), repeat=m):
        vals = []
        pos = 0
        for (_, gtable), grank in gkeys:
            idx = 0
            for q in combo[pos : pos + grank]:
                idx = idx * n_states + q
            vals.append(gtable[idx])
            pos += grank
        idx = 0
        for q in vals:
            idx = idx * n_states + q
        out.append(ftable[idx])
    return (n_states, tuple(out))


def random_transformation_key(n_states, rank, rng):
    return (n_states, tuple(rng.randrange(n_states) for _ in range(n_states**rank)))


def seeded_compose_calls(seed=13, per_shape=2, max_rank=5):
    """(fkey, frank, gkeys) for 1-4 states, f of rank 0-3 and every vector
    of g ranks 0-3 whose total is at most max_rank."""
    rng = random.Random(seed)
    calls = []
    for n_states in range(1, 5):
        for frank in range(4):
            for granks in itertools.product(range(4), repeat=frank):
                if sum(granks) > max_rank:
                    continue
                for _ in range(per_shape):
                    fkey = random_transformation_key(n_states, frank, rng)
                    gkeys = [(random_transformation_key(n_states, r, rng), r) for r in granks]
                    calls.append((fkey, frank, gkeys))
    return calls


def compose_call_mismatches(compose, calls):
    """The calls (fkey, frank, gkeys) on which a rule of keys alone differs
    from the reference, which reads the ranks too."""
    return [c for c in calls
            if compose(c[0], [g for g, _ in c[2]]) != reference_transformation_compose(*c)]


def transformation_rank(key):
    """The rank of a transformation key: its table lists n_states ** rank
    values.  With one state every rank reads 0, and the reference gives one
    answer for every rank there."""
    n_states, table = key
    rank, size = 0, 1
    while size < len(table):
        rank, size = rank + 1, size * n_states
    return rank


def recorded_compose_calls(monkeypatch, name):
    """Every call of _transformation_compose made while compiling a corpus
    formula, once each."""
    calls = {}
    original = preclone._transformation_compose

    def recording(fkey, gkeys):
        ranked = tuple((g, transformation_rank(g)) for g in gkeys)
        calls.setdefault((fkey, len(gkeys), ranked), None)
        return original(fkey, gkeys)

    monkeypatch.setattr(preclone, "_transformation_compose", recording)
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    compiler.compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)
    monkeypatch.undo()
    return [(f, r, list(gs)) for f, r, gs in calls]


def swapping_g_entries(compose):
    """compose, reading one g table with its first two differing entries swapped."""

    def bad(fkey, gkeys):
        gkeys = list(gkeys)
        for i, (n_states, table) in enumerate(gkeys):
            diff = [j for j in range(1, len(table)) if table[j] != table[0]]
            if diff:
                t = list(table)
                t[0], t[diff[0]] = t[diff[0]], t[0]
                gkeys[i] = (n_states, tuple(t))
                break
        return compose(fkey, gkeys)

    return bad


def test_transformation_compose_matches_the_product_walk():
    calls = seeded_compose_calls()
    assert {f for _, f, _ in calls} == {0, 1, 2, 3}
    assert any(r == 0 for _, _, gs in calls for _, r in gs)
    assert compose_call_mismatches(preclone._transformation_compose, calls) == []


@pytest.mark.parametrize("name", ["ex04", "ex27"])
def test_transformation_compose_matches_on_every_compile_call(monkeypatch, name):
    calls = recorded_compose_calls(monkeypatch, name)
    assert calls
    assert compose_call_mismatches(preclone._transformation_compose, calls) == []


def test_swapped_g_table_entries_are_caught():
    bad = swapping_g_entries(preclone._transformation_compose)
    assert compose_call_mismatches(bad, seeded_compose_calls())


def corrupted_stride():
    """_transformation_compose with one digit step n_states - 1, not n_states."""
    source = textwrap.dedent(inspect.getsource(preclone._transformation_compose))
    assert source.count("a * n_states + v") == 1
    namespace = dict(vars(preclone))
    exec(source.replace("a * n_states + v", "a * (n_states - 1) + v"), namespace)
    return namespace["_transformation_compose"]


def test_corrupted_stride_is_caught(monkeypatch):
    bad = corrupted_stride()
    assert compose_call_mismatches(bad, seeded_compose_calls())
    assert compose_call_mismatches(bad, recorded_compose_calls(monkeypatch, "ex04"))
