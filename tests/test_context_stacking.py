"""Context stacking and the block-product gather plans built on it.

(a) the stacking laws, exhaustively over small contexts;
(b) BlockProduct.compose against a direct per-context rewrite;
(c) a corrupted plan entry is caught by the comparison of (b).
"""

import itertools
import random

import pytest

from preclones.automata import TreeAutomaton
from preclones.blockprod import BlockProduct
from preclones.errors import RankOverflow
from preclones.preclone import t_exists, t_mod, transformation_pgpair
from preclones.syntactic import (
    Context,
    enumerate_contexts,
    insert_in_context,
    stack_contexts,
)
from preclones.trees import alphabet


def t_left():
    """Generated by the left projection f(x, y) = x and two constants.

    T_exists and T_2 are commutative, so they cannot tell the components
    of a context apart; this preclone can.
    """
    trans = {
        "f": {(x, y): x for x in (0, 1) for y in (0, 1)},
        "a": {(): 0},
        "b": {(): 1},
    }
    automaton = TreeAutomaton(alphabet("f/2", "a/0", "b/0"), 0, 2, (), trans, frozenset({1}))
    return transformation_pgpair(automaton, 3).pgpair.preclone


PRECLONES = {
    "t_exists": lambda: t_exists(3).preclone,
    "t_2": lambda: t_mod(2, 3).preclone,
    "t_left": t_left,
}
MAX = 2  # sorts and widths of the contexts in the exhaustive laws


def contexts_by_sort(T):
    """{(sort, width): contexts} for sorts and widths up to MAX."""
    return {
        (k, n): enumerate_contexts(T, k, n)
        for k in range(MAX + 1)
        for n in range(MAX + 1)
    }


@pytest.mark.parametrize("name", sorted(PRECLONES))
def test_stacking_inserts_in_sequence(name):
    # insert(f, C.D) == insert(insert(f, D), C) for every small C, D and f
    T = PRECLONES[name]()
    ctx = contexts_by_sort(T)
    checked = 0
    for (k, n), Cs in ctx.items():
        for C in Cs:
            for m in range(MAX + 1):
                for D in ctx[(n, m)]:
                    CD = stack_contexts(T, C, D)
                    assert len(CD.v) == m
                    assert CD in ctx[(k, m)]
                    for f in T.sort(m):
                        want = insert_in_context(T, insert_in_context(T, f, D), C)
                        assert insert_in_context(T, f, CD) == want
                        checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("name", sorted(PRECLONES))
def test_stacking_is_associative(name):
    T = PRECLONES[name]()
    ctx = contexts_by_sort(T)
    rng = random.Random(31)
    checked = 0
    for (k, n), Cs in ctx.items():
        for C in Cs:
            for m, p in itertools.product(range(MAX + 1), repeat=2):
                Ds, Es = ctx[(n, m)], ctx[(m, p)]
                if not Ds or not Es:
                    continue
                for _ in range(10):
                    D = Ds[rng.randrange(len(Ds))]
                    E = Es[rng.randrange(len(Es))]
                    lhs = stack_contexts(T, stack_contexts(T, C, D), E)
                    assert lhs == stack_contexts(T, C, stack_contexts(T, D, E))
                    checked += 1
    assert checked > 10_000


def test_identity_contexts_are_neutral():
    T = t_exists(3).preclone
    ctx = contexts_by_sort(T)

    def identity(n):
        return Context(T.unit, 0, (T.unit,) * n, 0)

    for (k, n), Cs in ctx.items():
        for C in Cs:
            assert stack_contexts(T, C, identity(n)) == C
            assert stack_contexts(T, identity(k), C) == C


def test_stacking_rejects_a_context_of_the_wrong_sort():
    T = t_exists(3).preclone
    C = enumerate_contexts(T, 1, 1)[0]
    D = enumerate_contexts(T, 2, 1)[0]
    with pytest.raises(ValueError):
        stack_contexts(T, C, D)


def test_index_raises_rank_overflow_for_a_missing_context():
    T = t_exists(3).preclone
    bp = BlockProduct(T, T, 0, trunc=2)
    outside = enumerate_contexts(T, 1, 1)[0]  # sort 1, not the product's sort 0
    with pytest.raises(RankOverflow):
        bp.index(outside)
    c = bp.contexts[1][2]
    assert bp.index(c) == 2


# ---------------------------------------------------------------------------
# (b) the direct per-context rewrite, as an oracle for the gather plans


def reference_compose(bp, ff, ggs):
    """(F,f) . (G_i,g_i)_i by rewriting every result context directly."""
    F, f = ff
    n = f[0]
    gs = tuple(g for _, g in ggs)
    widths = [g[0] for g in gs]
    m = sum(widths)
    T = bp.T
    Q = []
    for c in bp.contexts[m]:
        # slice v by the argument widths; ell_i = total rank of slice i
        vbars = []
        pos = 0
        for w in widths:
            vbars.append(c.v[pos : pos + w])
            pos += w
        ells = [sum(x[0] for x in vb) for vb in vbars]
        gv = tuple(T.compose(gs[i], vbars[i]) for i in range(n))
        f_val = F[bp.ctx_index[n][Context(c.u, c.k1, gv, c.k2)]]
        args = []
        for i in range(n):
            inner = gv[:i] + (T.unit,) + gv[i + 1 :]
            c_i = T.plug(c.u, c.k1, T.compose(f, inner), c.k2)
            p1 = c.k1 + sum(ells[:i])
            p2 = sum(ells[i + 1 :]) + c.k2
            args.append(ggs[i][0][bp.ctx_index[widths[i]][Context(c_i, p1, vbars[i], p2)]])
        Q.append(bp.S.compose(f_val, args))
    return (tuple(Q), T.compose(f, gs))


def compose_mismatches(bp, cases):
    """The (ff, ggs) cases on which compose and the direct rewrite differ."""
    return [
        (ff, ggs) for ff, ggs in cases
        if bp.compose(ff, ggs) != reference_compose(bp, ff, ggs)
    ]


def random_element(bp, n, rng):
    S, T = bp.S, bp.T
    f = T.sort(n)[rng.randrange(T.sort_size(n))]
    F = tuple(S.sort(n)[rng.randrange(S.sort_size(n))] for _ in range(bp.n_contexts(n)))
    return (F, f)


def random_cases(bp, count, rng):
    cases = []
    while len(cases) < count:
        n = rng.randrange(0, bp.trunc + 1)
        ranks = [rng.randrange(0, bp.trunc + 1) for _ in range(n)]
        if sum(ranks) > bp.trunc:
            continue
        ff = random_element(bp, n, rng)
        cases.append((ff, [random_element(bp, r, rng) for r in ranks]))
    return cases


@pytest.mark.parametrize("name", ["t_exists", "t_left"])
@pytest.mark.parametrize("k", [0, 1])
def test_compose_matches_the_direct_rewrite(k, name):
    T = PRECLONES[name]()
    bp = BlockProduct(T, T, k, trunc=3)
    cases = random_cases(bp, 400, random.Random(41 + k))
    assert compose_mismatches(bp, cases) == []
    assert len(bp._plans) < len(cases)  # plans were reused, not rebuilt


# ---------------------------------------------------------------------------
# (c) mutation: every corrupted plan entry shows up in the comparison


@pytest.mark.parametrize("k", [0, 1])
def test_corrupted_plan_entry_is_reported(k):
    S = T = t_exists(3).preclone
    bp = BlockProduct(S, T, k, trunc=2)
    x = (1, 1)  # true_1: x . unit == unit . x == x != unit
    units = (S.unit,) * bp.n_contexts(1)
    key = (T.unit, (T.unit,))
    bp.compose((units, T.unit), [(units, T.unit)])
    plan = bp._plans[key]
    assert len(units) >= 2
    for col, column in enumerate(plan):
        for row, idx in enumerate(column):
            bad = (idx + 1) % len(units)
            tables = [units, units]
            tables[col] = units[:bad] + (x,) + units[bad + 1 :]
            case = ((tables[0], T.unit), [(tables[1], T.unit)])
            assert compose_mismatches(bp, [case]) == []
            bp._plans[key] = (
                plan[:col] + (column[:row] + (bad,) + column[row + 1 :],) + plan[col + 1 :]
            )
            assert compose_mismatches(bp, [case]) == [case]
            bp._plans[key] = plan
