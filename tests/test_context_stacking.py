"""Context stacking and the block-product column cache built on it.

(a) the stacking laws, exhaustively over small contexts;
(b) BlockProduct.compose against a direct per-context rewrite, and
    alpha_context_morphism and relabel against direct stacking, which
    also catches a relabel whose top-down child head is wrong;
(c) a corrupted column entry is caught by each comparison of (b);
(d) every column that the benchmark's block-product job shapes and the
    depth-2 corpus compiles cache equals stacking and hashing;
(e) a corrupted block table is caught by (d) and by compose, and the
    one- and no-entry gathers agree with the direct rewrite.
"""

import inspect
import itertools
import os
import random
import textwrap

import pytest

from preclones import blockprod, compiler
from preclones.automata import TreeAutomaton
from preclones.blockprod import (
    BlockProduct,
    alpha_context_morphism,
    eval_two_ways,
    relabel,
    restricted_block_product,
)
from preclones.cli import load_formula_file
from preclones.errors import RankOverflow
from preclones.logic import free_vars
from preclones.preclone import Morphism, t_exists, t_mod, transformation_pgpair
from preclones.syntactic import (
    Context,
    enumerate_contexts,
    insert_in_context,
    stack_contexts,
)
from preclones.trees import RankedTree, alphabet, enumerate_trees
from preclones.trees import rank as tree_rank
from tree_oracles import factor_at, nv_nodes


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
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
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
# (b) the direct per-context rewrite and direct stacking, as oracles for
# the column cache


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
    # columns are shared between plans, and plans between cases
    reads = sum(len(plan) for plan in bp._plans.values())
    assert len(bp._columns) < reads and len(bp._plans) < len(cases)




def reference_alpha(src, dst, C, ff):
    """alpha_C(F, f) by stacking C on every target context directly."""
    F, f = ff
    T = src.bp.T
    return (tuple(F[src.bp.index(stack_contexts(T, C, D))] for D in dst.contexts[f[0]]), f)


def hole_at(t, path, tau):
    """The hole that the node at path leaves in t's image under tau."""
    f_tree, r1, g_sub, r3 = factor_at(t, path)
    return Context(tau.eval(f_tree), r1, tuple(tau.eval(c) for c in g_sub.children), r3)


def reference_relabel(t, D, gamma, tau, bp):
    """relabel by stacking D on every node's hole directly."""

    def walk(s, path):
        if s.is_var():
            return s
        hole = hole_at(t, path, tau)
        label = gamma[s.label][0][bp.index(stack_contexts(bp.T, D, hole))]
        return RankedTree(label, tuple(walk(c, path + (i,)) for i, c in enumerate(s.children)))

    return walk(t, ())


def index_table(bp, m, tag):
    """A rank-m table whose entry at context i is the label f"{tag}@{i}".

    Read through a gather it spells out the gathered indices, so equal
    results mean equal index plans.
    """
    return tuple(f"{tag}@{i}" for i in range(bp.n_contexts(m)))


def sort_of(h):
    return h.k1 + sum(x[0] for x in h.v) + h.k2


class AlphaSweep:
    """alpha_C for every context C of widths 0..2 of S []_k^T T, T = S."""

    def __init__(self, T, k):
        t_els = [T.sort(n) for n in range(T.trunc + 1)]
        self.src = restricted_block_product(T, T, t_els, k, trunc=2)
        self.dsts = {n: BlockProduct(T, T, n, trunc=2) for n in range(3)}

    def agrees(self, C, m):
        """Does alpha_C gather rank-m tables as direct stacking does?"""
        bp, dst = self.src.bp, self.dsts[len(C.v)]
        ff = (index_table(bp, m, "F"), bp.T.sort(m)[0])
        return alpha_context_morphism(self.src, dst, C)(ff) == reference_alpha(
            self.src, dst, C, ff)

    def mismatches(self):
        return [
            (C, m) for n in self.dsts for C in self.src.bp.contexts[n]
            for m in range(3) if not self.agrees(C, m)
        ]


RELABEL_SIGMA = alphabet("f/2", "g/1", "a/0")


class RelabelSweep:
    """relabel over seeded trees of ranks 0..2, at every context D."""

    def __init__(self, T, k, per_rank, seed):
        rng = random.Random(seed)
        self.bp = bp = BlockProduct(T, T, k, trunc=2)
        image = {}
        self.gamma = {}
        for name, a in RELABEL_SIGMA.symbols:
            image[name] = T.sort(a)[rng.randrange(T.sort_size(a))]
            self.gamma[name] = (index_table(bp, a, name), image[name])
        self.tau = Morphism(RELABEL_SIGMA, T, image)
        self.trees = []
        for n in range(3):
            pool = list(enumerate_trees(RELABEL_SIGMA, n, 4))
            self.trees += rng.sample(pool, min(per_rank, len(pool)))
        self.tree_of = {}  # hole -> a tree with a node leaving that hole
        for t in self.trees:
            for path in nv_nodes(t):
                self.tree_of.setdefault(hole_at(t, path, self.tau), t)

    def agrees(self, t, D):
        args = (t, D, self.gamma, self.tau, self.bp)
        return relabel(*args) == reference_relabel(*args)

    def mismatches(self):
        return [
            (t, D) for t in self.trees for D in self.bp.contexts[tree_rank(t)]
            if not self.agrees(t, D)
        ]


@pytest.mark.parametrize("name", ["t_exists", "t_left"])
@pytest.mark.parametrize("k", [0, 1])
def test_alpha_matches_direct_stacking(k, name):
    sweep = AlphaSweep(PRECLONES[name](), k)
    assert sweep.mismatches() == []
    assert sweep.src.bp._columns  # alpha read the cache


@pytest.mark.parametrize("name", ["t_exists", "t_left"])
@pytest.mark.parametrize("k", [0, 1])
def test_relabel_matches_direct_stacking(k, name):
    sweep = RelabelSweep(PRECLONES[name](), k, 12, 43 + k)
    assert sweep.mismatches() == []
    assert set(sweep.bp._columns) == {(h,) for h in sweep.tree_of}


# relabel's child head with the siblings' values or the hole's slot lost
CHILD_HEAD = "vals[:i] + [T.unit] + vals[i + 1 :]"
HEAD_MUTATIONS = {
    "siblings-as-units": "[T.unit] * len(vals)",
    "rank-1-siblings-as-units": "[T.unit if j == i or v[0] == 1 else v for j, v in enumerate(vals)]",
    "hole-first": "[T.unit] + vals[:i] + vals[i + 1 :]",
}


@pytest.mark.parametrize("mutation", sorted(HEAD_MUTATIONS))
def test_a_wrong_child_head_fails_the_factor_at_reference(mutation):
    source = textwrap.dedent(inspect.getsource(blockprod.relabel))
    assert source.count(CHILD_HEAD) == 1
    namespace = dict(vars(blockprod))
    exec(source.replace(CHILD_HEAD, HEAD_MUTATIONS[mutation]), namespace)
    mutant = namespace["relabel"]
    caught = 0
    for name in ("t_exists", "t_left"):
        for k in (0, 1):
            sweep = RelabelSweep(PRECLONES[name](), k, 12, 43 + k)
            for t in sweep.trees:
                for D in sweep.bp.contexts[tree_rank(t)]:
                    args = (t, D, sweep.gamma, sweep.tau, sweep.bp)
                    try:
                        caught += mutant(*args) != reference_relabel(*args)
                    except ValueError:  # a head of the wrong rank
                        caught += 1
    assert caught


def test_alpha_rejects_a_context_outside_the_source_product():
    T = t_exists(3).preclone
    sweep = AlphaSweep(T, 0)
    C = enumerate_contexts(T, 1, 1)[0]  # sort 1, not the source's sort 0
    with pytest.raises(ValueError, match="not a context of the source"):
        alpha_context_morphism(sweep.src, sweep.dsts[1], C)


# ---------------------------------------------------------------------------
# (c) mutation: every corrupted column entry shows up in the comparisons


def corrupted_columns(bp):
    """Corrupt each cached column entry in turn, yielding (holes, row, bad).

    Entry ``row`` is moved on by one, to ``bad``; compose's plans are
    dropped so that they read the corrupted column.  The cache is
    restored after.
    """
    for holes, column in list(bp._columns.items()):
        size = bp.n_contexts(len(holes[-1].v))
        assert size >= 2
        for row, idx in enumerate(column):
            bad = (idx + 1) % size
            bp._columns[holes] = column[:row] + (bad,) + column[row + 1 :]
            bp._plans.clear()
            yield holes, row, bad
        bp._columns[holes] = column
    bp._plans.clear()


@pytest.mark.parametrize("k", [0, 1])
def test_corrupted_column_entry_is_caught_by_compose(k):
    S = T = t_exists(3).preclone
    bp = BlockProduct(S, T, k, trunc=2)
    x = (1, 1)  # true_1: x . unit == unit . x == x != unit
    units = (S.unit,) * bp.n_contexts(1)
    assert len(units) >= 2

    def case(table, bad):
        """unit . unit with x at position bad of F's (0) or G's (1) table."""
        tables = [units, units]
        tables[table] = units[:bad] + (x,) + units[bad + 1 :]
        return ((tables[0], T.unit), [(tables[1], T.unit)])

    cases = [case(table, bad) for table in (0, 1) for bad in range(len(units))]
    assert compose_mismatches(bp, cases) == []
    # F's column is that of the one hole O, the argument's that of A_0, B_0
    assert sorted(map(len, bp._columns)) == [1, 2]
    corrupted = 0
    for holes, _, bad in corrupted_columns(bp):
        bad_case = case(len(holes) - 1, bad)
        assert compose_mismatches(bp, [bad_case]) == [bad_case]
        corrupted += 1
    assert corrupted == 2 * len(units)
    assert compose_mismatches(bp, cases) == []


@pytest.mark.parametrize("k", [0, 1])
def test_corrupted_column_entry_is_caught_by_alpha(k):
    # alpha_C at rank m reads entry C of the column of each D in m's sort
    sweep = AlphaSweep(t_exists(3).preclone, k)
    assert sweep.mismatches() == []
    contexts = sweep.src.bp.contexts
    corrupted = 0
    for (D,), row, _ in corrupted_columns(sweep.src.bp):
        assert not sweep.agrees(contexts[sort_of(D)][row], len(D.v))
        corrupted += 1
    assert corrupted == sum(len(col) for col in sweep.src.bp._columns.values()) > 0
    assert sweep.mismatches() == []


@pytest.mark.parametrize("name", ["t_exists", "t_left"])
@pytest.mark.parametrize("k", [0, 1])
def test_corrupted_column_entry_is_caught_by_relabel(k, name):
    # relabel(t, D) reads entry D of the column of each of its nodes' holes
    sweep = RelabelSweep(PRECLONES[name](), k, 12, 43 + k)
    assert sweep.mismatches() == []
    contexts = sweep.bp.contexts
    corrupted = 0
    for (H,), row, _ in corrupted_columns(sweep.bp):
        t = sweep.tree_of[H]
        assert not sweep.agrees(t, contexts[tree_rank(t)][row])
        corrupted += 1
    assert corrupted == sum(len(col) for col in sweep.bp._columns.values()) > 0
    assert sweep.mismatches() == []


# ---------------------------------------------------------------------------
# (d) every cached column against stacking and hashing, after the job
# shapes of the block-product benchmark and the depth-2 corpus compiles


def stacking_column(bp, holes):
    """index(c.h_1...h_r) for each context c of h_1's sort, in order,
    by stacking every hole onto c and looking the result up."""
    out = []
    for c in bp.contexts[sort_of(holes[0])]:
        for h in holes:
            c = stack_contexts(bp.T, c, h)
        out.append(bp.index(c))
    return tuple(out)


def column_mismatches(bp):
    return [
        holes for holes, col in bp._columns.items() if col != stacking_column(bp, holes)
    ]


def constant_element(bp, f):
    return ((bp.S.sort(f[0])[0],) * bp.n_contexts(f[0]), f)


def run_assoc_shape(bp):
    """compose on every (f, gs) that fits the product's bound."""
    T = bp.T
    for n in range(bp.trunc + 1):
        for f in T.sort(n):
            for gs in T.iter_tuples(n, bp.trunc):
                bp.compose(constant_element(bp, f), [constant_element(bp, g) for g in gs])


DBOOL = alphabet("1_0/0", "0_0/0", "1_2/2", "0_2/2")


def run_two_ways_shape(bp):
    """eval_two_ways over DBOOL trees of ranks 0..2, at every context."""
    gamma = {
        name: bp.make(lambda c, m=m: bp.S.sort(m)[-1], bp.T.sort(m)[name[0] == "1"])
        for name, m in DBOOL.symbols
    }
    tau = Morphism(DBOOL, bp.T, {name: g[1] for name, g in gamma.items()})
    for n in range(3):
        for t in enumerate_trees(DBOOL, n, 3):
            for D in bp.contexts[n]:
                a, b = eval_two_ways(bp, gamma, tau, t, D)
                assert a == b


def run_alpha_shapes(T):
    """alpha_C for every C and rank, and alpha on composites: the restricted
    product at k = 1, trunc 2, into the products at levels 0..2."""
    sweep = AlphaSweep(T, 1)
    src = sweep.src
    for n, dst in sweep.dsts.items():
        for C in src.bp.contexts[n]:
            alpha = alpha_context_morphism(src, dst, C)
            for m in range(3):
                alpha(constant_element(src.bp, T.sort(m)[-1]))
    run_assoc_shape(src.bp)
    for dst in sweep.dsts.values():
        run_assoc_shape(dst)
    return [src.bp, *sweep.dsts.values()]


@pytest.mark.parametrize("k", [0, 1])
def test_columns_of_the_benchmark_job_shapes_match_stacking(k):
    T = t_exists(3).preclone
    bps = [BlockProduct(T, T, k, trunc=3), BlockProduct(T, T, k, trunc=2)]
    run_assoc_shape(bps[0])
    run_assoc_shape(bps[1])
    run_two_ways_shape(bps[1])
    if k == 1:
        bps += run_alpha_shapes(T)
    for bp in bps:
        assert bp._columns
        assert column_mismatches(bp) == []


@pytest.mark.parametrize("name", ["ex04", "ex05", "ex19", "ex27"])
def test_columns_of_the_depth_two_compiles_match_stacking(name, monkeypatch):
    made = []

    class Recorded(BlockProduct):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(compiler, "BlockProduct", Recorded)
    phi, sigma, k, _ = load_formula_file(os.path.join(CORPUS, name + ".lind"))
    compiler.compile_formula(phi, sigma, tuple(sorted(free_vars(phi))), k)
    assert any(bp._columns for bp in made)
    for bp in made:
        assert column_mismatches(bp) == []


# ---------------------------------------------------------------------------
# (e) the block table behind the columns, and gathers of one or no entries


def block_corruptions(bp):
    """Corrupt each block table entry in turn, yielding (width, block, how).

    A block's offset moves by one (down, or up for the block at 0), and
    the first two v positions of a block with several swap.  The column
    and plan caches are dropped before each corruption and after the
    table is restored.
    """
    for n, blocks in enumerate(bp._blocks):
        for key, (offset, vs) in list(blocks.items()):
            corrupted = [("offset", (offset - 1 if offset else offset + 1, vs))]
            if len(vs) >= 2:
                a, b = list(vs)[:2]
                corrupted.append(("swap", (offset, {**vs, a: vs[b], b: vs[a]})))
            for how, entry in corrupted:
                blocks[key] = entry
                bp._columns.clear()
                bp._plans.clear()
                yield n, key, how
            blocks[key] = (offset, vs)
    bp._columns.clear()
    bp._plans.clear()


@pytest.mark.parametrize("name", ["t_exists", "t_left"])
def test_corrupted_block_table_is_caught_by_the_oracle_and_compose(name):
    T = PRECLONES[name]()
    bp = BlockProduct(T, T, 1, trunc=2)
    cases = random_cases(bp, 300, random.Random(47))
    assert compose_mismatches(bp, cases) == []
    assert column_mismatches(bp) == []
    caught = []
    for n, key, how in block_corruptions(bp):
        assert compose_mismatches(bp, cases) != [], (n, key, how)
        assert column_mismatches(bp) != [], (n, key, how)
        caught.append(how)
    assert "swap" in caught and caught.count("offset") == sum(map(len, bp._blocks)) >= 6
    assert compose_mismatches(bp, cases) == []
    assert column_mismatches(bp) == []


def one_state_preclone():
    """f/2 and a/0 on one state: every sort has one element."""
    trans = {"f": {(0, 0): 0}, "a": {(): 0}}
    automaton = TreeAutomaton(alphabet("f/2", "a/0"), 0, 1, (), trans, frozenset({0}))
    return transformation_pgpair(automaton, 3).pgpair.preclone


def unary_preclone():
    """g/1 swapping two states: no constants, so sort 0 is empty."""
    automaton = TreeAutomaton(alphabet("g/1"), 0, 2, (), {"g": {(0,): 1, (1,): 0}},
                              frozenset({1}))
    return transformation_pgpair(automaton, 2).pgpair.preclone


@pytest.mark.parametrize("make, trunc, sizes", [
    (one_state_preclone, 3, [1, 1, 1, 1]),
    (unary_preclone, 2, [2, 0, 0]),
])
def test_gathers_of_one_or_no_entries(make, trunc, sizes):
    T = make()
    bp = BlockProduct(T, T, 0, trunc=trunc)
    assert [bp.n_contexts(n) for n in range(trunc + 1)] == sizes
    cases = [
        ((F, f), [(G, g) for G, g in zip(Gs, gs)])
        for n in range(trunc + 1) for f in T.sort(n)
        for gs in T.iter_tuples(n, trunc)
        for F in itertools.product(T.sort(n), repeat=bp.n_contexts(n))
        for Gs in itertools.product(*(
            itertools.product(T.sort(g[0]), repeat=bp.n_contexts(g[0])) for g in gs))
    ]
    assert cases and compose_mismatches(bp, cases) == []
    t_els = [T.sort(n) for n in range(trunc + 1)]
    src = restricted_block_product(T, T, t_els, 0, trunc=trunc)
    checked = 0
    for C in src.bp.contexts[0] + src.bp.contexts[1]:
        dst = BlockProduct(T, T, len(C.v), trunc=trunc)
        alpha = alpha_context_morphism(src, dst, C)
        for m in range(trunc + 1):
            for f in T.sort(m):
                ff = (index_table(src.bp, m, "F"), f)
                assert alpha(ff) == reference_alpha(src, dst, C, ff)
                checked += 1
    assert checked > 0


def test_column_raises_rank_overflow_for_a_derived_context_past_the_bound():
    T = t_exists(3).preclone
    bp = BlockProduct(T, T, 0, trunc=2)
    a = T.sort(0)[0]
    wide = Context(T.unit, 0, (a, a, a), 0)  # sort 0, width 3 > trunc
    with pytest.raises(RankOverflow, match="derived context missing at rank 3"):
        bp.column(wide)


def test_column_rejects_a_hole_above_the_truncation():
    T = t_exists(3).preclone
    bp = BlockProduct(T, T, 0, trunc=2)
    with pytest.raises(ValueError, match="hole in sort 3 above the truncation 2"):
        bp.column(Context(T.unit, 0, (T.unit,) * 3, 0))
