import glob
import itertools
import os
import random
from dataclasses import replace

import pytest

import preclones.automata as automata
from preclones.errors import ParseError
from preclones.automata import (
    TreeAutomaton,
    automaton_equal,
    automaton_from_text,
    automaton_to_text,
    boolean_alphabet,
    complement,
    explore,
    intersect,
    k_exists,
    k_forall_next,
    k_mod,
    k_path,
    language_equal,
    left_quotient,
    minimize,
    product,
    quotient_membership,
    random_automaton,
    reachable_states,
    right_quotient,
    union,
)
from preclones.trees import (
    UNIT,
    alphabet,
    compose,
    enumerate_trees,
    oplus,
    parse_tree,
    unit_tuple,
)

SIG = alphabet("f/2", "a/0", "b/0")
DBOOL = boolean_alphabet([0, 2])
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def max_automaton(k=0):
    """a -> 0, b -> 1, f -> max of children; finals {1}."""
    trans = {
        "f": {(p, q): max(p, q) for p in (0, 1) for q in (0, 1)},
        "a": {(): 0},
        "b": {(): 1},
    }
    return TreeAutomaton(SIG, k, 2, (0,) * k, trans, frozenset({1}))


def test_run_hand_evaluated():
    a = max_automaton()
    assert a.run(parse_tree("f(a,b)", SIG)) == 1
    assert a.run(parse_tree("a", SIG)) == 0


def test_run_unit():
    a = max_automaton(k=1)
    assert a.run(UNIT) == a.var_state[0]


def test_k_exists_membership():
    a = k_exists(DBOOL, 0)
    assert a.accepts(parse_tree("1_2(0_0,0_0)", DBOOL))
    assert not a.accepts(parse_tree("0_2(0_0,0_0)", DBOOL))
    a1 = k_exists(DBOOL, 1)
    assert not a1.accepts(UNIT)


def test_k_exists_counts_by_enumeration():
    # oracle: direct scan of labels
    a = k_exists(DBOOL, 0)
    for t in enumerate_trees(DBOOL, 0, 3):
        want = "1_" in _labels(t)
        assert a.accepts(t) == want


def _labels(t):
    if t.is_var():
        return ""
    return str(t.label)[:2] + "".join(_labels(c) for c in t.children)


def _count_ones(t):
    if t.is_var():
        return 0
    own = 1 if str(t.label).startswith("1_") else 0
    return own + sum(_count_ones(c) for c in t.children)


def test_k_mod_examples():
    a = k_mod(DBOOL, 0, 2, 1)
    assert not a.accepts(parse_tree("1_2(1_0,0_0)", DBOOL))  # two ones
    assert a.accepts(parse_tree("1_0", DBOOL))
    a0 = k_mod(DBOOL, 0, 2, 0)
    assert a0.accepts(parse_tree("0_0", DBOOL))


def test_k_mod_oracle():
    for (p, r) in [(2, 0), (2, 1), (3, 2)]:
        a = k_mod(DBOOL, 0, p, r)
        for t in enumerate_trees(DBOOL, 0, 4):
            assert a.accepts(t) == (_count_ones(t) % p == r)


def test_k_mod_rejects_bad_parameters():
    with pytest.raises(ValueError):
        k_mod(DBOOL, 0, 1, 0)
    with pytest.raises(ValueError):
        k_mod(DBOOL, 0, 3, 3)


def test_k_path_examples():
    a = k_path(DBOOL, 0)
    assert a.accepts(parse_tree("1_2(0_0,1_0)", DBOOL))
    assert not a.accepts(parse_tree("0_2(1_0,1_0)", DBOOL))
    assert a.accepts(parse_tree("1_0", DBOOL))


def _has_one_path(t):
    if t.is_var():
        return True  # vacuous: path ends at the variable leaf
    if not str(t.label).startswith("1_"):
        return False
    if not t.children:
        return True
    return any(_has_one_path(c) for c in t.children)


def test_k_path_oracle():
    for k in (0, 1):
        a = k_path(DBOOL, k)
        for t in enumerate_trees(DBOOL, k, 4):
            assert a.accepts(t) == _has_one_path(t)


def test_k_forall_next_examples():
    a = k_forall_next(DBOOL, 0)
    assert a.accepts(parse_tree("0_2(1_0,1_0)", DBOOL))
    assert not a.accepts(parse_tree("0_2(1_0,0_0)", DBOOL))
    assert a.accepts(parse_tree("1_0", DBOOL))  # no children: vacuous


def test_boolean_ops_match_set_semantics():
    a = k_exists(DBOOL, 0)
    b = k_mod(DBOOL, 0, 2, 1)
    u = union(a, b)
    i = intersect(a, b)
    c = complement(a)
    for t in enumerate_trees(DBOOL, 0, 3):
        assert u.accepts(t) == (a.accepts(t) or b.accepts(t))
        assert i.accepts(t) == (a.accepts(t) and b.accepts(t))
        assert c.accepts(t) == (not a.accepts(t))


def test_intersect_with_complement_empty():
    a = k_exists(DBOOL, 0)
    empty = intersect(a, complement(a))
    for t in enumerate_trees(DBOOL, 0, 4):
        assert not empty.accepts(t)


def test_complement_twice():
    a = k_path(DBOOL, 0)
    assert language_equal(complement(complement(a)), a, 3)


def test_minimize_idempotent():
    a = union(k_exists(DBOOL, 0), k_mod(DBOOL, 0, 2, 1))  # 3 states, 2 needed
    m1 = minimize(a)
    m2 = minimize(m1)
    assert m1.n_states == m2.n_states


def test_minimize_k_exists_two_states():
    a = union(k_exists(DBOOL, 0), k_mod(DBOOL, 0, 2, 1))
    assert a.n_states == 3
    m = minimize(a)
    assert m.n_states == 2
    assert language_equal(m, a, 4)


def test_minimize_preserves_language():
    rng = random.Random(7)
    for _ in range(3):
        a = random_automaton(SIG, 1, 3, rng)
        m = minimize(a)
        assert m.n_states <= a.n_states
        assert language_equal(m, a, 4)


def test_minimize_multi_final_sets():
    a = k_mod(DBOOL, 0, 3, 0)
    m, (f1, f2) = minimize(a, [frozenset({1}), frozenset({2})])
    # the three residue classes stay distinguishable
    assert m.n_states == 3
    b1 = TreeAutomaton(m.alphabet, m.rank, m.n_states, m.var_state, m.transitions, f1)
    for t in enumerate_trees(DBOOL, 0, 3):
        assert b1.accepts(t) == (_count_ones(t) % 3 == 1)


def test_left_quotient_examples():
    a = k_exists(DBOOL, 0)
    u1 = parse_tree("0_2(v1,1_0)", DBOOL, 1)
    q1 = left_quotient(a, u1, 0, 0)
    for t in enumerate_trees(DBOOL, 0, 3):
        assert q1.accepts(t)  # u already contains a 1-node
    u2 = parse_tree("0_2(v1,0_0)", DBOOL, 1)
    q2 = left_quotient(a, u2, 0, 0)
    assert language_equal(q2, a, 3)
    q3 = left_quotient(a, UNIT, 0, 0)
    assert language_equal(q3, a, 3)


def test_left_quotient_definitional_exhaustive():
    cases = [
        (k_exists(DBOOL, 2), parse_tree("1_2(v1,v2)", DBOOL, 2), 0, 1),
        (k_mod(DBOOL, 2, 2, 1), parse_tree("0_2(v1,v2)", DBOOL, 2), 1, 0),
        (k_path(DBOOL, 1), parse_tree("0_2(v1,v2)", DBOOL, 2), 0, 1),
    ]
    for a, u, k1, k2 in cases:
        q = left_quotient(a, u, k1, k2)
        for f in enumerate_trees(DBOOL, a.rank - k1 - k2, 3):
            assert q.accepts(f) == quotient_membership(a, u, k1, k2, f)


def test_right_quotient_examples():
    a = k_exists(DBOOL, 0)
    q = right_quotient(a, oplus([parse_tree("1_0", DBOOL)]))
    for f in enumerate_trees(DBOOL, 1, 3):
        assert q.accepts(f)  # any f . 1_0 contains a 1-node
    a2 = k_mod(DBOOL, 2, 2, 0)
    q2 = right_quotient(a2, unit_tuple(2))
    assert language_equal(q2, a2, 3)


def test_right_quotient_definitional_exhaustive():
    a = k_mod(DBOOL, 2, 2, 1)
    v = oplus([parse_tree("1_2(v1,v2)", DBOOL, 2)])
    q = right_quotient(a, v)
    for f in enumerate_trees(DBOOL, 1, 3):
        assert q.accepts(f) == a.accepts(compose(f, v))

    v2 = oplus([parse_tree("1_0", DBOOL), parse_tree("0_2(v1,v2)", DBOOL, 2)])
    q2 = right_quotient(a, v2)
    for f in enumerate_trees(DBOOL, 2, 3):
        assert q2.accepts(f) == a.accepts(compose(f, v2))


def test_text_roundtrip():
    a = k_forall_next(DBOOL, 1)
    text = automaton_to_text(a)
    b = automaton_from_text(text)
    assert automaton_equal(a, b)
    assert automaton_to_text(b) == text


def test_text_rejects_garbage():
    with pytest.raises(ParseError):
        automaton_from_text("rank 0\nstates 1\nnonsense\n")
    with pytest.raises(ParseError):
        automaton_from_text("states 1\nfinals 0\n")


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(REPO, "tests", "**", "*.aut"), recursive=True)
    + glob.glob(os.path.join(REPO, "perfbench", "corpus", "*.aut"))))
def test_every_committed_automaton_loads(path):
    a = automata.load_automaton(path)
    assert automaton_equal(automaton_from_text(automaton_to_text(a)), a)


def test_transitions_must_be_total():
    with pytest.raises(ValueError):
        TreeAutomaton(SIG, 0, 2, (), {"f": {(0, 0): 0}, "a": {(): 0}, "b": {(): 1}}, frozenset())


def test_alphabet_or_rank_mismatch_rejected():
    a = k_exists(DBOOL, 0)
    b = k_exists(DBOOL, 1)
    with pytest.raises(ValueError):
        union(a, b)
    c = max_automaton()
    with pytest.raises(ValueError):
        intersect(a, c)


# -- the reachable-state builder against the constructions it replaced ---------


def naive_reachable(a):
    """Reference: re-apply every letter to all known tuples until stable."""
    reach = set(a.var_state)
    changed = True
    while changed:
        changed = False
        for name, m in a.alphabet.symbols:
            for combo in itertools.product(sorted(reach), repeat=m):
                q = a.transitions[name][combo]
                if q not in reach:
                    reach.add(q)
                    changed = True
    return reach


def full_product(a, b, final_rule):
    """Reference: the whole n_a * n_b product, state (p, q) coded p * n_b + q."""
    n = a.n_states * b.n_states
    transitions = {}
    for name, m in a.alphabet.symbols:
        table = {}
        for combo in itertools.product(range(n), repeat=m):
            ps = tuple(c // b.n_states for c in combo)
            qs = tuple(c % b.n_states for c in combo)
            table[combo] = a.transitions[name][ps] * b.n_states + b.transitions[name][qs]
        transitions[name] = table
    finals = frozenset(
        p * b.n_states + q
        for p in range(a.n_states)
        for q in range(b.n_states)
        if final_rule(p in a.finals, q in b.finals)
    )
    var_state = tuple(p * b.n_states + q for p, q in zip(a.var_state, b.var_state))
    return TreeAutomaton(a.alphabet, a.rank, n, var_state, transitions, finals)


def either(x, y):
    return x or y


def both(x, y):
    return x and y


TERNARY = alphabet("g/3", "h/1", "a/0")


def check_builder_against_references(seed):
    rng = random.Random(seed)
    for alph in (SIG, TERNARY):
        for _ in range(10):
            k = rng.randrange(3)
            a, b, c = (random_automaton(alph, k, rng.randrange(1, 4), rng) for _ in range(3))
            for x in (a, b, c):
                assert reachable_states(x) == naive_reachable(x)
            assert automaton_equal(
                minimize(union(a, b)), minimize(full_product(a, b, either))
            )
            assert automaton_equal(
                minimize(intersect(a, b)), minimize(full_product(a, b, both))
            )
            abc, triples = product([a, b, c])
            for rule in (either, both):
                finals = frozenset(
                    i
                    for i, (p, q, r) in enumerate(triples)
                    if rule(rule(p in a.finals, q in b.finals), r in c.finals)
                )
                want = full_product(full_product(a, b, rule), c, rule)
                assert automaton_equal(minimize(replace(abc, finals=finals)), minimize(want))


@pytest.mark.parametrize("seed", range(3))
def test_builder_matches_naive_fixpoint_and_full_product(seed):
    check_builder_against_references(seed)


def test_explore_evaluates_each_tuple_once():
    a = random_automaton(TERNARY, 2, 4, random.Random(7))
    calls = []

    def step(name, qs):
        calls.append((name, qs))
        return a.transitions[name][qs]

    states, tables = explore(TERNARY, a.var_state, step)
    assert states == naive_reachable(a)
    assert len(calls) == len(set(calls))
    for name, m in TERNARY.symbols:
        assert set(tables[name]) == set(itertools.product(states, repeat=m))


def sinking_explore(alphabet, seeds, step, grade, cap):
    """Reference for a graded explore: the ungraded one, with a step that
    sends a tuple holding the sink or graded past the cap to the sink."""
    sink = object()

    def capped(name, qs):
        if sink in qs or sum(map(grade, qs)) > cap:
            return sink
        return step(name, qs)

    states, tables = explore(alphabet, seeds, capped)
    in_cap = {
        name: {qs: q for qs, q in table.items() if sink not in qs and q is not sink}
        for name, table in tables.items()
    }
    return states - {sink}, in_cap


@pytest.mark.parametrize("seed", range(4))
def test_graded_explore_matches_the_overflow_sink(seed):
    rng = random.Random(seed)
    for alph in (SIG, TERNARY):
        for _ in range(10):
            cap = rng.randrange(4)
            a = random_automaton(alph, rng.randrange(3), rng.randrange(1, 6), rng)
            grade = [rng.randrange(cap + 2) for _ in range(a.n_states)].__getitem__
            calls = []

            def step(name, qs):
                calls.append((name, qs))
                return a.transitions[name][qs]

            states, tables = explore(alph, a.var_state, step, grade, cap)
            want = sinking_explore(
                alph, a.var_state, lambda name, qs: a.transitions[name][qs], grade, cap
            )
            assert (states, tables) == want
            assert len(calls) == len(set(calls))
            assert set(calls) == {
                (name, qs)
                for name, m in alph.symbols
                for qs in itertools.product(states, repeat=m)
                if sum(map(grade, qs)) <= cap
            }


def one_round_explore(alphabet, seeds, step, grade=None, cap=0):
    """A corrupted explore that stops after its first round."""
    states = set(seeds)
    tables = {name: {} for name, _ in alphabet.symbols}
    known = sorted(states)
    for name, m in alphabet.symbols:
        for combo in itertools.product(known, repeat=m):
            tables[name][combo] = step(name, combo)
    states |= {q for table in tables.values() for q in table.values()}
    return states, tables


def test_one_round_explore_is_caught(monkeypatch):
    monkeypatch.setattr(automata, "explore", one_round_explore)
    with pytest.raises(AssertionError):
        check_builder_against_references(0)
