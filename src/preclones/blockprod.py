"""Block products of preclones and pg-pairs.

A rank-n element of S []_k T is a pair (F, f): f in T_n and F a total
table from the n-ary contexts of T's sort k into S_n.  Block elements are
plain pairs ``(F, f)`` with F a tuple of S-element handles indexed by the
deterministic context enumeration order.

Every operation here reads a table at a context derived from another
context by stacking, C.D (``syntactic.stack_contexts``):

- composition reads F at c.O and the i-th argument's table at
  (c.A_i).B_i, for holes O, A_i, B_i built from (f, gs) alone;
- the morphism of a context C reads F at C.D;
- relabelling reads each letter's table at D.H, H the hole that the
  node's factorization leaves in the tree's image in T; a top-down walk
  builds each node's hole from its parent's.

The derived indices depend only on T-side data and the holes, so all
three read one cache, ``BlockProduct.column``: for a path of holes, the
index of c.h_1...h_r for every context c, kept per path.  A column is
arithmetic on the enumeration, not a hash of each stacked context: the
enumeration lists a width's contexts in (k1, k2) blocks, each u-major over
one list vs, and stacking sets c.h's block and v from c's alone and
changes u by one plug, so c.h has index offset(k1', k2') + u'[1] * |vs'|
+ position(v').  Tables are read through one ``itemgetter`` per column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceeded, RankOverflow
from .preclone import (
    DEFAULT_BUDGET,
    FinitaryPreclone,
    Morphism,
    PgPair,
    generated,
)
from .syntactic import Context, block_contexts, context_blocks, stack_under
from .trees import RankedTree, fold, rank as tree_rank


class BlockProduct:
    """S []_k T, with elements materialized on demand.

    ``trunc`` bounds the rank of block elements; T must reach rank k+1
    (for contexts) and S must reach ``trunc``.
    """

    def __init__(self, S: FinitaryPreclone, T: FinitaryPreclone, k: int, trunc=None):
        self.S = S
        self.T = T
        self.k = k
        self.trunc = min(S.trunc, T.trunc) if trunc is None else trunc
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if T.trunc < k + 1:
            raise RankOverflow("T must be truncated at rank >= k+1 for contexts")
        if S.trunc < self.trunc:
            raise RankOverflow("S must be truncated at least at the product's bound")
        # per width, one walk of the context blocks gives the contexts and
        # (k1, k2) -> (offset, {v: position}); see column
        blocks = [list(context_blocks(T, k, n)) for n in range(self.trunc + 1)]
        self.contexts = [block_contexts(T, bs) for bs in blocks]
        self.ctx_index = [{c: i for i, c in enumerate(cs)} for cs in self.contexts]
        self._blocks = [{(k1, k2): (offset, {v: i for i, v in enumerate(vs)})
                         for k1, k2, offset, vs in bs} for bs in blocks]
        self._columns = {}  # path of holes -> index column, see column
        self._plans = {}  # (f, gs) -> a gather per table compose reads

    # -- element helpers -----------------------------------------------------

    def n_contexts(self, n):
        return len(self.contexts[n])

    def rank_of(self, ff):
        return ff[1][0]

    def unit_key(self):
        return ((self.S.unit,) * self.n_contexts(1), self.T.unit)

    def make(self, fvalues, f):
        """Build (F, f) from a context->S-element function or sequence."""
        n = f[0]
        if n > self.trunc:
            raise ValueError(f"generator of rank {n} above the truncation {self.trunc}")
        if callable(fvalues):
            F = tuple(fvalues(c) for c in self.contexts[n])
        else:
            F = tuple(fvalues)
        if len(F) != self.n_contexts(n):
            raise ValueError("F table does not match the context enumeration")
        for s_el in F:
            if s_el[0] != n:
                raise ValueError("F values must have the element's rank")
        return (F, f)

    def F_at(self, ff, c: Context):
        F, f = ff
        return F[self.ctx_index[f[0]][c]]

    def index(self, c: Context) -> int:
        """Position of c in the enumeration of its width's contexts.

        Derived contexts must lie in the enumeration; a missing one means
        the truncation was too small for the derivation.
        """
        i = self.ctx_index[len(c.v)].get(c)
        if i is None:
            raise RankOverflow(f"derived context missing at rank {len(c.v)}: {c}")
        return i

    def column(self, *holes):
        """Index of c.h_1...h_r for each context c of h_1's sort, in order.

        Each (k1, k2, v) of the source enumeration walks the holes once
        through ``stack_under``, folding their plugs into one element y by
        T's associativity; each u of the block then costs the one plug
        u . (k1 units + y + k2 units), whose handle is the u-major row.

        A path is cached as a whole rather than composed from single-hole
        columns: an intermediate c.h_1...h_j may be wider than ``trunc``
        and so have no index (compose's c.A_i has width n-1+w_i).
        """
        col = self._columns.get(holes)
        if col is None:
            T, first = self.T, holes[0]
            col = []
            width = first.k1 + sum(x[0] for x in first.v) + first.k2
            if width > self.trunc:
                raise ValueError(f"hole in sort {width} above the truncation {self.trunc}")
            for (k1, k2), (_, vs) in self._blocks[width].items():
                rows = []
                for v in vs:
                    y, j1, w, j2 = stack_under(T, v, first)
                    for h in holes[1:]:
                        x, i1, w, i2 = stack_under(T, w, h)
                        y, j1, j2 = T.plug(y, j1, x, j2), j1 + i1, i2 + j2
                    try:
                        offset, ws = self._blocks[len(w)][k1 + j1, j2 + k2]
                        at = offset + ws[w]
                    except (IndexError, KeyError):
                        raise RankOverflow(f"derived context missing at rank {len(w)}") from None
                    rows.append(((T.unit,) * k1 + (y,) + (T.unit,) * k2, at, len(ws)))
                for u in T.sort(k1 + 1 + k2):
                    col.extend(at + T.compose(u, args)[1] * size for args, at, size in rows)
            col = self._columns[holes] = tuple(col)
        return col

    # -- composition -----------------------------------------------------------

    def compose(self, ff, ggs):
        """(F,f) . ((G_1,g_1) + ... + (G_n,g_n)) per the context rewrite.

        Q(c) = F(c.O) . (G_i((c.A_i).B_i))_i over the rank-m contexts c,
        with O = (1, 0, gs, 0), A_i = (1, 0, gs[:i] + w_i units + gs[i+1:], 0)
        and B_i = (f, i, w_i units, n-1-i), w_i = rank(g_i).  The indices
        depend only on (f, gs) and are kept as one gather column per table.
        """
        F, f = ff
        n = f[0]
        if len(ggs) != n:
            raise ValueError(f"width mismatch: rank {n} vs {len(ggs)} arguments")
        gs = tuple(g for _, g in ggs)
        m = sum(g[0] for g in gs)
        if m > self.trunc:
            raise RankOverflow(f"block element of rank {m} above bound {self.trunc}")
        fg = self.T.compose(f, gs)
        plan = self._plans.get((f, gs))
        if plan is None:
            plan = self._plans[(f, gs)] = tuple(map(_gather, self._compose_plan(f, gs)))
        args = [get(G) for get, (G, _) in zip(plan[1:], ggs)]
        rows = zip(*args) if args else itertools.repeat(())
        return (tuple(map(self.S.compose, plan[0](F), rows)), fg)

    def _compose_plan(self, f, gs):
        """Index columns for compose: F's, then one per argument slot.

        The slot hole is split into A_i then B_i because the single hole
        A_i.B_i has the head f.(gs with a unit at i), of rank m+1-w_i,
        which overflows the truncation when w_i = 0; stacking onto a
        context c in sort k first keeps every rank within k+1.
        """
        T = self.T
        n = len(gs)
        cols = [self.column(Context(T.unit, 0, gs, 0))]
        for i, g in enumerate(gs):
            units = (T.unit,) * g[0]
            cols.append(self.column(
                Context(T.unit, 0, gs[:i] + units + gs[i + 1 :], 0),
                Context(f, i, units, n - 1 - i),
            ))
        return tuple(cols)

    def eval_tree(self, gamma, t: RankedTree):
        """Homomorphic evaluation of a tree whose labels index ``gamma``."""
        unit = self.unit_key()
        return fold(t, lambda _: unit, lambda name, kids: self.compose(gamma[name], kids))

    # -- carrier as a preclone --------------------------------------------------

    def carrier_pgpair(self, generators, budget=DEFAULT_BUDGET,
                       eval_cap=None) -> PgPair:
        """Generated sub-preclone of the block product, as element tables.

        ``eval_cap`` restricts the closure to compositions with result rank
        at most the cap (enough for evaluating trees of that rank).
        """
        pre = FinitaryPreclone(self.trunc, self.compose,
                               lambda key, rank: f"(F,{self.T.describe(key[1])})")
        pre.set_unit(pre.intern(1, self.unit_key()))
        letters = ((key, self.rank_of(key), key) for key in generators)
        return generated(pre, letters, eval_cap, budget)[0]


def _gather(column):
    """A tuple table's entries at ``column``, as a tuple, in one C call.

    ``itemgetter`` returns a bare entry for one index and needs at least
    one, so those columns read a slice instead."""
    if len(column) > 1:
        return itemgetter(*column)
    return itemgetter(slice(column[0], column[0] + 1) if column else slice(0))


def second_projection(carrier: FinitaryPreclone):
    """The map (F, f) -> f on a materialized block carrier."""

    def project(el):
        return carrier.key(el)[1]

    return project


def block_product_pg(pgS: PgPair, pgT: PgPair, k: int, trunc=None,
                     budget=DEFAULT_BUDGET):
    """Block product of pg-pairs: closure of the full generating set.

    The generators are every (F, b) with b a T-generator of rank n and F
    valued in the rank-n S-generators.
    Returns (BlockProduct, PgPair of the carrier).
    """
    bp = BlockProduct(pgS.preclone, pgT.preclone, k, trunc)
    gen_keys = []
    for n in range(bp.trunc + 1):
        a_n = pgS.generators_of_rank(n)
        b_n = pgT.generators_of_rank(n)
        if not b_n:
            continue
        count = generator_count(pgS, pgT, bp, n)
        if count > budget:
            raise BudgetExceeded(
                f"{count} generators at rank {n} exceed budget {budget}"
            )
        for b in b_n:
            for F in itertools.product(a_n, repeat=bp.n_contexts(n)):
                gen_keys.append((F, b))
    return bp, bp.carrier_pgpair(gen_keys, budget)


def generator_count(pgS: PgPair, pgT: PgPair, bp: BlockProduct, n: int) -> int:
    """|A_n|^|I_{k,n}| * |B_n|, the size of the full generator set at rank n."""
    return len(pgS.generators_of_rank(n)) ** bp.n_contexts(n) * len(
        pgT.generators_of_rank(n)
    )


# ---------------------------------------------------------------------------
# restricted block product S []_k^{T'} T


@dataclass
class RestrictedBlockProduct:
    """Elements of S []_k T' whose second component lies in a sub-preclone T.

    The carrier is combinatorially large (|S_n| ** |I'_{k,n}| * |T_n| per
    rank), so it is kept lazy: membership, composition and counting walk
    the full product's machinery.
    """

    bp: BlockProduct  # over (S, T', k)
    t_elements: list  # per rank, the T'-elements forming the sub-preclone T

    def contains(self, ff):
        F, f = ff
        return f in self.t_elements[f[0]]

    def compose(self, ff, ggs):
        for x in (ff,) + tuple(ggs):
            if not self.contains(x):
                raise ValueError("element outside the restricted product")
        out = self.bp.compose(ff, ggs)
        if not self.contains(out):
            raise ValueError(
                "composite left the restricted product: t_elements is not "
                "closed under composition"
            )
        return out

    def carrier_size(self, n) -> int:
        return self.bp.S.sort_size(n) ** self.bp.n_contexts(n) * len(
            self.t_elements[n]
        )

    def iter_carrier(self, n):
        sorts = self.bp.S.sort(n)
        for f in self.t_elements[n]:
            for F in itertools.product(sorts, repeat=self.bp.n_contexts(n)):
                yield (F, f)


def restricted_block_product(S, Tfull, t_elements, k, trunc=None):
    """S []_k^{T'} T for T the sub-preclone listed in ``t_elements``."""
    bp = BlockProduct(S, Tfull, k, trunc)
    return RestrictedBlockProduct(bp, [list(els) for els in t_elements])


def alpha_context_morphism(src: RestrictedBlockProduct, dst: BlockProduct, C: Context):
    """The morphism S []_k^{T'} T -> S []_n T determined by a context C.

    C is an n-ary context over T' in sort k, one of src's contexts; the
    image of (F, f) is (F^C, f) with F^C(D) = F(C.D), read at entry C of
    D's column.  Satisfies F^C(1, 0, n-units, 0) = F(C).  Every C.D is in
    sort k, so it needs no more truncation than src already has.  dst
    must be the block product of S and T at level n = width of C.
    """
    if dst.k != len(C.v):
        raise ValueError("destination level must equal the context width")
    ci = src.bp.ctx_index[len(C.v)].get(C)
    if ci is None:
        raise ValueError(f"not a context of the source product: {C}")
    gathers = {}

    def apply(ff):
        F, f = ff
        get = gathers.get(f[0])
        if get is None:
            get = gathers[f[0]] = _gather([src.bp.column(D)[ci] for D in dst.contexts[f[0]]])
        return (get(F), f)

    return apply


# ---------------------------------------------------------------------------
# relabeling evaluation (the two-route identity)


def relabel(t: RankedTree, D: Context, gamma, tau: Morphism, bp: BlockProduct):
    """Relabel each NV node of t with the S-element its table picks at D.

    gamma maps each letter to a block element key (F_sigma, b_sigma); tau
    is the second-component morphism into T.  The relabelled tree keeps
    t's shape and variable leaves; NV labels become S-element handles.
    A node labelled sigma factors t as f_tree . (r1 units + sigma(children)
    + r3 units), which leaves the hole H = (tau(f_tree), r1, tau(children),
    r3) in sort rank(t); the node's label is F_sigma(D.H), read at entry
    D of H's column.  D.H is in sort k, so needs no more truncation.  The
    walk is top-down: the root's head tau(f_tree) is T's unit, and child
    i's is its parent's with tau(sigma) . (the siblings' values, a unit at
    i) plugged in between r1 and r3, by T's unit and associativity laws.
    Every intermediate has rank at most rank(t)+1, the bound that contexts
    in sort rank(t) already need.
    """
    d = bp.ctx_index[tree_rank(t)].get(D)
    if d is None:
        raise ValueError("context does not match the tree's rank")
    T = bp.T
    # every subtree's tau-value, paired with its children's pairs
    values = fold(t, lambda _: (T.unit, ()),
                  lambda name, kids: (T.compose(tau(name), [v for v, _ in kids]), kids))

    def walk(s, kids, head, r1):
        vals, r3 = [v for v, _ in kids], head[0] - 1 - r1
        label = gamma[s.label][0][bp.column(Context(head, r1, tuple(vals), r3))[d]]
        out, left = [], r1
        for i, (c, (v, grandkids)) in enumerate(zip(s.children, kids)):
            if not c.is_var():
                x = T.compose(tau(s.label), vals[:i] + [T.unit] + vals[i + 1 :])
                c = walk(c, grandkids, T.plug(head, r1, x, r3), left)
            out.append(c)
            left += v[0]
        return RankedTree(label, tuple(out))

    return t if t.is_var() else walk(t, values[1], T.unit, 0)


def eval_labels(S: FinitaryPreclone, t: RankedTree):
    """Evaluate a tree whose NV labels are S-element handles."""
    return fold(t, lambda _: S.unit, S.compose)


def eval_two_ways(bp: BlockProduct, gamma, tau: Morphism, t: RankedTree, D: Context):
    """(table route, relabeling route) for the value of phi(t)'s table at D.

    Route one evaluates t homomorphically in the block product and reads
    the first component's table at D; route two relabels t through D and
    evaluates the resulting S-labelled tree.  The two agree.
    """
    Q_t, _ = bp.eval_tree(gamma, t)
    via_table = Q_t[bp.ctx_index[tree_rank(t)][D]]
    via_relabel = eval_labels(bp.S, relabel(t, D, gamma, tau, bp))
    return via_table, via_relabel
