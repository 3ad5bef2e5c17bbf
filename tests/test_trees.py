import itertools

import pytest

from preclones.errors import ParseError
from preclones.trees import (
    UNIT,
    RankedTree,
    alphabet,
    compose,
    compositions,
    enumerate_trees,
    forest,
    node,
    oplus,
    parse_tree,
    rank,
    total_rank,
    tree_to_text,
    unit_tuple,
    var,
    variables_in_order,
)
from tree_oracles import count_nv, factor_at, nv_nodes, recompose, symbol_tree

SIG = alphabet("f/2", "a/0", "b/0")


def test_parse_simple():
    t = parse_tree("f(a,b)", SIG, 0)
    assert t == node("f", node("a"), node("b"))
    assert count_nv(t) == 3
    assert rank(t) == 0


def test_parse_unit():
    assert parse_tree("v1", SIG, 1) == UNIT


def test_parse_rejects_out_of_order_variables():
    with pytest.raises(ParseError):
        parse_tree("f(v2,v1)", SIG, 2)


def test_parse_rejects_arity_mismatch():
    with pytest.raises(ParseError):
        parse_tree("f(a)", SIG)
    with pytest.raises(ParseError):
        parse_tree("g(a,b)", SIG)


def test_parse_whitespace_insensitive():
    assert parse_tree(" f( a , b ) ", SIG, 0) == parse_tree("f(a,b)", SIG, 0)


def test_compose_unit_left():
    t = parse_tree("f(a,v1)", SIG)
    assert compose(UNIT, (t,)) == t


def test_compose_unit_right():
    t = parse_tree("f(v1,v2)", SIG)
    assert compose(t, unit_tuple(2)) == t


def test_compose_direct_substitution():
    f = parse_tree("f(v1,v2)", SIG)
    assert compose(f, (node("a"), node("b"))) == parse_tree("f(a,b)", SIG)


def test_compose_renumbers():
    f = parse_tree("f(v1,v2)", SIG)
    got = compose(f, (f, UNIT))
    assert got == parse_tree("f(f(v1,v2),v3)", SIG, 3)


def test_oplus_widths():
    g = oplus([node("a"), node("b")])
    assert len(g) == 2 and total_rank(g) == 0
    assert total_rank(unit_tuple(3)) == 3
    assert oplus([]) == ()


def test_factor_at_root():
    t = parse_tree("f(a,b)", SIG)
    r, k1, s, k2 = factor_at(t, ())
    assert (r, k1, s, k2) == (UNIT, 0, t, 0)


def test_factor_at_leaf():
    t = parse_tree("f(a,b)", SIG)
    r, k1, s, k2 = factor_at(t, (0,))
    assert r == parse_tree("f(v1,b)", SIG)
    assert s == node("a") and k1 == 0 and k2 == 0


def test_factor_inner_node():
    t = parse_tree("f(v1,f(a,v2))", SIG, 2)
    r, k1, s, k2 = factor_at(t, (1,))
    assert r == parse_tree("f(v1,v2)", SIG, 2)
    assert (k1, k2) == (1, 0)
    assert s == parse_tree("f(a,v1)", SIG, 1)
    assert recompose(r, k1, s, k2) == t


def test_factor_recompose_roundtrip_exhaustive():
    for k in (0, 1, 2):
        for t in enumerate_trees(SIG, k, 4):
            for x in nv_nodes(t):
                r, k1, s, k2 = factor_at(t, x)
                assert recompose(r, k1, s, k2) == t
                assert k1 + rank(s) + k2 == k


def test_enumerate_small():
    got = [tree_to_text(t) for t in enumerate_trees(SIG, 0, 1)]
    assert got == ["a", "b"]


def test_enumerate_rank0_nv3():
    got = {tree_to_text(t) for t in enumerate_trees(SIG, 0, 3)}
    assert got == {"a", "b", "f(a,a)", "f(a,b)", "f(b,a)", "f(b,b)"}
    assert len(got) == 6


def test_enumerate_rank1_nv0():
    assert list(enumerate_trees(SIG, 1, 0)) == [UNIT]


def test_enumerate_unique_and_valid():
    for k in (0, 1, 2):
        seen = list(enumerate_trees(SIG, k, 4))
        assert len(seen) == len(set(seen))
        for t in seen:
            assert rank(t) == k
            assert count_nv(t) <= 4
            vs = variables_in_order(t)
            assert vs == list(range(1, k + 1))


def test_enumerate_matches_brute_force_count():
    # independent count: generate all label shapes by brute force over
    # strings is impractical, so cross-count via a recurrence on (rank, nv)
    def count(k, nv_exact, memo={}):
        key = (k, nv_exact)
        if key in memo:
            return memo[key]
        n = 0
        if nv_exact == 0:
            n = 1 if k == 1 else 0
        else:
            for name, m in SIG.symbols:
                if nv_exact == 1 and m > 0:
                    continue
                for ranks in _comps(k, m):
                    for nvs in _comps(nv_exact - 1, m):
                        prod = 1
                        for i in range(m):
                            prod *= count(ranks[i], nvs[i])
                        n += prod
        memo[key] = n
        return n

    def _comps(total, parts):
        if parts == 0:
            return [()] if total == 0 else []
        out = []
        for first in range(total + 1):
            for rest in _comps(total - first, parts - 1):
                out.append((first,) + rest)
        return out

    for k in (0, 1, 2):
        want = sum(count(k, j) for j in range(5))
        assert len(list(enumerate_trees(SIG, k, 4))) == want


def reference_enumerate_trees(alph, k, max_nv):
    """The enumeration that composes every tree from its root letter."""
    memo = {}

    def exact(k, nv):
        if (k, nv) not in memo:
            out = [UNIT] if nv == 0 and k == 1 else []
            for name, m in alph.symbols if nv > 0 else ():
                if nv == 1 and m > 0:
                    continue
                for ranks in compositions(k, m):
                    for nvs in compositions(nv - 1, m):
                        child_sets = [exact(ranks[i], nvs[i]) for i in range(m)]
                        for kids in itertools.product(*child_sets):
                            out.append(compose(symbol_tree(name, m), kids))
            memo[k, nv] = out
        return memo[k, nv]

    for nv in range(max_nv + 1):
        yield from sorted(exact(k, nv), key=tree_to_text)


DBOOL = alphabet("1_0/0", "0_0/0", "1_2/2", "0_2/2")
# a unary and a ternary letter: child offsets over one, two and three
# children, and nv levels reached through several arities
UNARY_TERNARY = alphabet("g/1", "h/3", "a/0", "b/0")


@pytest.mark.parametrize("k", (0, 1, 2, 3))
@pytest.mark.parametrize("alph", (SIG, DBOOL, UNARY_TERNARY),
                         ids=("sigma_ex", "dbool", "unary_ternary"))
def test_enumerate_matches_the_composing_reference(alph, k):
    assert list(enumerate_trees(alph, k, 6)) == list(reference_enumerate_trees(alph, k, 6))


def test_enumerate_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="max_nv must be >= 0, got -1"):
        list(enumerate_trees(SIG, 0, -1))
    with pytest.raises(ValueError, match="max_nv must be >= 0, got -1"):
        forest(SIG, 0, -1)
    assert list(enumerate_trees(SIG, 0, 0)) == []


FOREST_CASES = [
    pytest.param(alph, k, 5, id=f"{name}-{k}")
    for alph, name in ((SIG, "sigma_ex"), (DBOOL, "dbool"), (UNARY_TERNARY, "unary_ternary"))
    for k in (0, 1, 2, 3)
]


def dag_trees(dag):
    """The tree of every forest entry, by serial, built from its children's."""
    built = []
    for label, kids, _ in dag:
        built.append(RankedTree(label, tuple(built[c] for c in kids)))
    return built


@pytest.mark.parametrize("alph,k,max_nv", FOREST_CASES)
def test_forest_levels_match_the_composing_reference(alph, k, max_nv):
    dag, levels = forest(alph, k, max_nv)
    built = dag_trees(dag)
    assert len(levels) == max_nv + 1
    got = [built[s] for level in levels for s in level]
    assert got == list(reference_enumerate_trees(alph, k, max_nv))
    for nv, level in enumerate(levels):
        assert all(count_nv(built[s]) == nv for s in level)


@pytest.mark.parametrize("alph,k,max_nv", FOREST_CASES)
def test_forest_entries_are_their_trees_built_once(alph, k, max_nv):
    dag, _ = forest(alph, k, max_nv)
    built = dag_trees(dag)
    for s, (label, kids, text) in enumerate(dag):
        t = built[s]
        assert text == tree_to_text(t)
        assert t.label == label
        assert all(c < s for c in kids)  # children first
        assert t.children == tuple(built[c] for c in kids)
    assert len(set(built)) == len(dag)


def test_unit_axioms_exhaustive():
    for k in (0, 1, 2):
        for t in enumerate_trees(SIG, k, 3):
            assert compose(UNIT, (t,)) == t
            assert compose(t, unit_tuple(k)) == t


def test_associativity_small():
    # (f.g).h == f.(g_1.h_1 + ... + g_n.h_n) over all triples built from
    # trees with <= 3 NV nodes and ranks <= 2
    pool = {k: list(enumerate_trees(SIG, k, 3)) for k in (0, 1, 2)}
    shapes_checked = 0
    for n in (1, 2):
        for f in pool[n] if n != 1 else pool[1]:
            if rank(f) != n:
                continue
            for m_ranks in itertools.product((0, 1), repeat=n):
                gs_pool = [pool[r] for r in m_ranks]
                for gs in itertools.product(*gs_pool):
                    m = sum(m_ranks)
                    for p_ranks in itertools.product((0, 1), repeat=m):
                        hs_pool = [pool[r][:2] for r in p_ranks]
                        for hs in itertools.product(*hs_pool):
                            lhs = compose(compose(f, gs), hs)
                            # regroup hs per g_i ranks
                            rhs_parts = []
                            idx = 0
                            for i in range(n):
                                sub = hs[idx : idx + m_ranks[i]]
                                idx += m_ranks[i]
                                rhs_parts.append(compose(gs[i], sub))
                            rhs = compose(f, rhs_parts)
                            assert lhs == rhs
                            shapes_checked += 1
    assert shapes_checked > 0


def test_symbol_tree():
    assert symbol_tree("f", 2) == node("f", var(1), var(2))
    assert rank(symbol_tree("f", 2)) == 2
