"""Rank-truncated finitary preclones.

Elements are handles ``(rank, index)`` into per-rank tables.  Each
element has one shared handle tuple, owned by its preclone: ``intern``,
``lookup``, the compose memo and every sort hand out that same object,
and ``sort(n)`` returns a cached tuple of them, rebuilt only when the
sort has grown.  Every preclone carries a truncation bound R and
rejects compositions whose result rank would exceed it.  Concrete
families (transformations of an automaton's state set, direct products,
quotients, generated sub-preclones, loaded dumps) share one
interned-table representation and differ only in their raw composition
rule, a function of keys alone: a preclone built over another algebra
composes through that algebra's own ``compose``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .automata import explore
from .errors import BudgetExceeded, NotACongruence, ParseError, RankOverflow, natural, read_lines
from .trees import RankedAlphabet, RankedTree, compositions, fold

El = tuple  # (rank, index)

DEFAULT_BUDGET = 100_000


class FinitaryPreclone:
    """A truncated preclone over interned element keys.

    ``compose_raw(fkey, [gkey, ...]) -> key`` supplies the semantics on
    keys alone, since the preclone knows every rank; results are looked up
    in the interned tables, so the sorts must be composition-closed within
    the truncation.
    """

    def __init__(self, trunc, compose_raw, describe=None):
        if trunc < 1:
            raise ValueError("truncation must be at least 1 (the unit's rank)")
        self.trunc = trunc
        self._compose_raw = compose_raw
        self._describe = describe or (lambda key, rank: str(key))
        self._keys = [[] for _ in range(trunc + 1)]
        self._index = [{} for _ in range(trunc + 1)]  # key -> handle, in interning order
        self._sorts = [() for _ in range(trunc + 1)]
        self._memo = {}
        self.unit = None

    # -- element bookkeeping ------------------------------------------------

    def intern(self, rank, key) -> El:
        if rank > self.trunc:
            raise RankOverflow(f"rank {rank} above truncation {self.trunc}")
        tbl = self._index[rank]
        el = tbl.get(key)
        if el is None:
            el = tbl[key] = (rank, len(self._keys[rank]))
            self._keys[rank].append(key)
        return el

    def lookup(self, rank, key):
        return self._index[rank].get(key)

    def key(self, el: El):
        return self._keys[el[0]][el[1]]

    def sort(self, n):
        """All elements of rank n, in interning order (sorts only grow)."""
        if len(self._sorts[n]) != len(self._keys[n]):
            self._sorts[n] = tuple(self._index[n].values())
        return self._sorts[n]

    def sort_size(self, n):
        return len(self._keys[n])

    def elements(self):
        for n in range(self.trunc + 1):
            yield from self.sort(n)

    def size(self):
        return sum(len(ks) for ks in self._keys)

    def describe(self, el: El) -> str:
        return self._describe(self.key(el), el[0])

    def set_unit(self, el: El):
        if el[0] != 1:
            raise ValueError("unit must have rank 1")
        self.unit = el
        self._units = [(el,) * n for n in range(self.trunc + 1)]

    # -- composition ----------------------------------------------------------

    def compose(self, f: El, gs) -> El:
        """f . (g_1 + ... + g_n); n must equal rank(f), result within trunc.

        A pair enters the memo only after passing the width and rank
        checks, so a hit needs neither.
        """
        gs = tuple(gs)
        memo_key = (f, gs)
        got = self._memo.get(memo_key)
        if got is not None:
            return got
        if f[0] != len(gs):
            raise ValueError(f"width mismatch: rank {f[0]} vs {len(gs)} arguments")
        m = sum(g[0] for g in gs)
        if m > self.trunc:
            raise RankOverflow(f"composition result rank {m} above truncation {self.trunc}")
        key = self._compose_raw(self.key(f), [self.key(g) for g in gs])
        el = self.lookup(m, key)
        if el is None:
            raise ValueError(
                f"composition left the carrier (rank {m}); sorts are not closed"
            )
        self._memo[memo_key] = el
        return el

    def plug(self, u: El, k1: int, x: El, k2: int) -> El:
        """u . (k1 units + x + k2 units)."""
        return self.compose(u, self._units[k1] + (x,) + self._units[k2])

    # -- bulk enumeration -----------------------------------------------------

    def tuple_shapes(self, width, max_total=None):
        """All rank vectors of a given width with total rank <= max_total."""
        cap = self.trunc if max_total is None else max_total
        return [c[:-1] for c in compositions(cap, width + 1)]

    def iter_tuples(self, width, total=None):
        """All argument tuples of the given width (total rank bound trunc)."""
        for ranks in self.tuple_shapes(width, total):
            pools = [self.sort(r) for r in ranks]
            if any(not p for p in pools):
                continue
            yield from itertools.product(*pools)

    def iter_compositions(self):
        """Yield (f, gs) over every composition defined within trunc."""
        for n in range(self.trunc + 1):
            for f in self.sort(n):
                for gs in self.iter_tuples(n):
                    yield f, gs


def close_under_composition(pre: FinitaryPreclone, budget=DEFAULT_BUDGET):
    """The full closure, kept by name; the library closes through ``generated``."""
    return close_for_evaluation(pre, pre.trunc, budget)


def close_for_evaluation(pre: FinitaryPreclone, cap, budget=DEFAULT_BUDGET):
    """Close the sorts under compositions whose result rank is <= cap.

    The generated sub-preclone is the image of the free preclone: its
    elements are the values of trees over the elements interned before
    the call (the unit and the generators), a variable leaf taking the
    unit.  A tree's rank is the sum of its subtrees' ranks, so every
    subtree of a tree of rank <= cap has rank <= cap too, and only a
    head, a generator, may lie above the cap.  The elements of rank <=
    cap are therefore the states ``automata.explore`` reaches from the
    unit over those elements as letters, graded by rank and capped at
    cap.  cap = trunc is the full closure; smaller caps keep carriers
    small where only trees of that rank are ever evaluated.  Each
    composition computed goes into the memo, width and rank checked.
    """
    letters = RankedAlphabet(tuple((el, el[0]) for el in pre.elements()))

    def step(f, gs):
        key = pre._compose_raw(pre.key(f), [pre.key(g) for g in gs])
        el = pre._memo[(f, gs)] = pre.intern(sum(g[0] for g in gs), key)
        if pre.size() > budget:
            raise BudgetExceeded(f"closure exceeded {budget} elements")
        return el

    explore(letters, [pre.unit], step, grade=lambda el: el[0], cap=cap)
    return pre


def generated(pre: FinitaryPreclone, letters, cap=None, budget=DEFAULT_BUDGET):
    """The pg-pair that ``letters`` generate in ``pre``, closed up to ``cap``.

    ``pre`` holds only its unit; ``letters`` yields (name, rank, key).
    Each key is interned in the order given, so element numbering follows
    the letters, and the sorts are then closed for evaluation up to
    ``cap`` (the truncation when None).  Returns the PgPair, its
    generators deduplicated in first-seen order, and the map name ->
    element.
    """
    image = {name: pre.intern(rank, key) for name, rank, key in letters}
    close_for_evaluation(pre, pre.trunc if cap is None else cap, budget)
    return PgPair(pre, list(dict.fromkeys(image.values()))), image


@dataclass
class PgPair:
    """A preclone together with a distinguished generating set."""

    preclone: FinitaryPreclone
    generators: list  # of El

    def generators_of_rank(self, n):
        return [g for g in self.generators if g[0] == n]


@dataclass
class Morphism:
    """A rank-preserving map from an alphabet into a preclone.

    Extension to trees is homomorphic: variables evaluate to the unit and
    a node composes its symbol's image with the children's images.
    """

    alphabet: RankedAlphabet
    target: FinitaryPreclone
    image: dict  # symbol name -> El

    def __post_init__(self):
        arity = self.alphabet.arity
        for name, el in self.image.items():
            if arity[name] != el[0]:
                raise ValueError(f"morphism does not preserve rank at {name}")

    def __call__(self, name):
        return self.image[name]

    def eval(self, t: RankedTree) -> El:
        unit, image, compose = self.target.unit, self.image, self.target.compose
        return fold(t, lambda _: unit, lambda name, imgs: compose(image[name], imgs))

    def eval_dag(self, dag) -> list:
        """``eval`` of every entry of a ``trees.forest`` dag, by serial: one
        compose-memo lookup each, children first."""
        vals, unit = [], self.target.unit
        image, memo, compose = self.image, self.target._memo, self.target.compose
        for label, kids, _ in dag:
            if label.__class__ is int:  # a variable leaf
                vals.append(unit)
            else:
                f, gs = image[label], tuple(map(vals.__getitem__, kids))
                vals.append(memo.get((f, gs)) or compose(f, gs))
        return vals


# ---------------------------------------------------------------------------
# transformation preclones


def _transformation_compose(fkey, gkeys):
    """f . (g_1 + ... + g_n) on tables in lexicographic argument order:
    each g appends one base-n_states digit to every f-index."""
    n_states, ftable = fkey
    acc = [0]
    for _, gtable in gkeys:
        acc = [a * n_states + v for a in acc for v in gtable]
    return (n_states, tuple(map(ftable.__getitem__, acc)))


def transformation_key(n_states, arity, fn):
    """Intern key of the arity-ary transformation given by fn(args)->state."""
    table = tuple(
        fn(combo) for combo in itertools.product(range(n_states), repeat=arity)
    )
    return (n_states, table)


def identity_key(n_states):
    return (n_states, tuple(range(n_states)))


def _new_transformation_preclone(n_states, trunc, describe=None):
    pre = FinitaryPreclone(trunc, _transformation_compose, describe)
    pre.set_unit(pre.intern(1, identity_key(n_states)))
    return pre


def apply_transformation(pre: FinitaryPreclone, el: El, args) -> int:
    """Apply a transformation element to a state tuple."""
    n_states, table = pre.key(el)
    idx = 0
    for q in args:
        idx = idx * n_states + q
    return table[idx]


@dataclass
class TransformationResult:
    pgpair: PgPair
    morphism: Morphism
    automaton: object


def transformation_pgpair(automaton, trunc, budget=DEFAULT_BUDGET,
                          eval_cap=None) -> TransformationResult:
    """The preclone associated with an automaton, truncated at ``trunc``.

    Generators are the transformations induced by the symbols; the
    morphism maps each symbol to its transformation.  ``trunc`` must be at
    least the maximal arity so the generators fit.  With ``eval_cap`` the
    carrier is closed only under compositions with result rank <= the cap
    (enough to evaluate trees of that rank) instead of the full closure.
    """
    if trunc < automaton.alphabet.max_arity:
        raise RankOverflow("truncation below the maximal symbol arity")
    n = automaton.n_states
    letters = (
        (name, m, transformation_key(n, m, automaton.transitions[name].__getitem__))
        for name, m in automaton.alphabet.symbols
    )
    pg, image = generated(_new_transformation_preclone(n, trunc), letters,
                          eval_cap, budget)
    morphism = Morphism(automaton.alphabet, pg.preclone, image)
    return TransformationResult(pg, morphism, automaton)


def accepting_elements(res: TransformationResult, finals=None):
    """Rank-k elements whose value on the variable states is final."""
    a = res.automaton
    F = a.finals if finals is None else finals
    pre = res.pgpair.preclone
    return {
        el
        for el in pre.sort(a.rank)
        if apply_transformation(pre, el, a.var_state) in F
    }


# ---------------------------------------------------------------------------
# T_exists and T_p


def t_exists(trunc) -> PgPair:
    """Sorts {or_n, true_n} on the Booleans; or_0 is the constant false.

    Element (n, 0) is or_n and (n, 1) is true_n.  Generated by or_2,
    true_0 and false_0; the unit is or_1.
    """

    def describe(key, rank):
        _, table = key
        if all(v == 1 for v in table):
            return f"true_{rank}"
        return f"false_{rank}" if rank == 0 else f"or_{rank}"

    pre = _new_transformation_preclone(2, trunc, describe)
    for n in range(trunc + 1):
        pre.intern(n, transformation_key(2, n, lambda c: 1 if any(c) else 0))
        pre.intern(n, transformation_key(2, n, lambda c: 1))
    gens = [pre.sort(2)[0], pre.sort(0)[1], pre.sort(0)[0]]  # or_2, true_0, false_0
    return PgPair(pre, gens)


def t_mod(p, trunc) -> PgPair:
    """Sort n is {f_{n,r}: 0 <= r < p}, f_{n,r}(xs) = sum(xs) + r mod p.

    Element (n, r) is f_{n,r}.  Generated by the constant 0, the unary
    increment and the binary sum; the unit is f_{1,0}.
    """
    if p < 2:
        raise ValueError("p must be at least 2")

    def describe(key, rank):
        _, table = key
        return f"f_{rank},{table[0] if table else 0}"

    pre = _new_transformation_preclone(p, trunc, describe)
    for n in range(trunc + 1):
        for r in range(p):
            pre.intern(
                n, transformation_key(p, n, lambda c, r=r: (sum(c) + r) % p)
            )
    gens = [pre.sort(0)[0], pre.sort(1)[1], pre.sort(2)[0]]
    return PgPair(pre, gens)


# ---------------------------------------------------------------------------
# products, generated sub-pg-pairs, quotients


def direct_product(factors) -> FinitaryPreclone:
    """Componentwise product of preclones, holding only its unit.

    A key is the tuple of the factors' elements, and a composition is
    each factor's own.  ``generated`` grows the product from paired
    images, so it interns only the tuples their closure reaches.
    """
    factors = list(factors)
    truncs = {S.trunc for S in factors}
    if len(truncs) != 1:
        raise ValueError("factors must share one truncation")

    def compose_raw(fkey, gkeys):
        return tuple(S.compose(f, [g[i] for g in gkeys])
                     for i, (S, f) in enumerate(zip(factors, fkey)))

    def describe(key, rank):
        return "(" + ",".join(S.describe(el) for S, el in zip(factors, key)) + ")"

    pre = FinitaryPreclone(truncs.pop(), compose_raw, describe)
    pre.set_unit(pre.intern(1, tuple(S.unit for S in factors)))
    return pre


def sub_pgpair_generated(S: FinitaryPreclone, gens, budget=DEFAULT_BUDGET,
                         eval_cap=None) -> PgPair:
    """The sub-pg-pair of S generated by ``gens`` (plus the unit).

    Elements of the result are keyed by the parent's element handles.
    ``eval_cap`` restricts the closure to evaluation compositions, as in
    transformation_pgpair.
    """
    pre = FinitaryPreclone(S.trunc, S.compose, lambda key, rank: S.describe(key))
    pre.set_unit(pre.intern(1, S.unit))
    return generated(pre, ((g, g[0], g) for g in gens), eval_cap, budget)[0]


def quotient(S: FinitaryPreclone, blocks_by_rank, verify=True):
    """Quotient by a per-rank partition; returns (Q, projection dict).

    ``blocks_by_rank[n]`` lists the blocks (lists of element handles) of
    sort n.  With verify=True a single pass over all compositions checks
    that the block of f.(gs) depends only on the blocks involved, raising
    NotACongruence with a witness otherwise.
    """
    proj, first = {}, {}  # S-element -> its Q-element, and its block's first element

    def compose_raw(fkey, gkeys):
        return first[S.compose(fkey, gkeys)]

    Q = FinitaryPreclone(S.trunc, compose_raw, lambda key, rank: f"[{S.describe(key)}]")
    for n, blocks in enumerate(blocks_by_rank):
        for block in blocks:
            cls = Q.intern(n, block[0])
            for el in block:
                if el[0] != n or el in proj:
                    raise ValueError("partition blocks overlap or mix ranks")
                proj[el], first[el] = cls, block[0]
        if sum(map(len, blocks)) != S.sort_size(n):
            raise ValueError(f"partition does not cover sort {n}")

    if verify:
        sig = {}  # (block of f, blocks of gs) -> block of f.(gs)
        for f, gs in S.iter_compositions():
            got = proj[S.compose(f, gs)]
            if sig.setdefault((proj[f], tuple(proj[g] for g in gs)), got) != got:
                raise NotACongruence("composition does not respect the partition",
                                     witness=(f, gs))

    Q.set_unit(proj[S.unit])
    return Q, proj


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    unit_checked: int = 0
    assoc_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"unit instances: {self.unit_checked}, "
            f"associativity instances: {self.assoc_checked}, {status}"
        )


def _assoc_instance(S, f, gs, hs):
    """Both sides of the associativity axiom for one triple."""
    lhs = S.compose(S.compose(f, gs), hs)
    parts = []
    pos = 0
    for g in gs:
        sub = hs[pos : pos + g[0]]
        pos += g[0]
        parts.append(S.compose(g, sub))
    rhs = S.compose(f, parts)
    return lhs, rhs


def _assoc_count(S):
    """The number of triples (f, gs, hs) within the truncation.

    W[w][t] counts argument tuples of width w and total rank exactly t,
    N[m] those of width m and any total rank; a triple is an f of rank n,
    a gs in W[n][m] and an hs in N[m].
    """
    R = S.trunc
    sizes = [S.sort_size(r) for r in range(R + 1)]
    W = [[1] + [0] * R]
    for _ in range(R):
        prev = W[-1]
        W.append([sum(sizes[r] * prev[t - r] for r in range(t + 1)) for t in range(R + 1)])
    N = [sum(row) for row in W]
    return sum(sizes[n] * sum(W[n][m] * N[m] for m in range(R + 1)) for n in range(R + 1))


def _assoc_witnesses(S):
    """Failing triples found by the checks D, SEQ and PAR of check_axioms."""
    R, unit = S.trunc, S.unit
    nonunit = [[el for el in S.sort(r) if el != unit] for r in range(R + 1)]
    circ = {}
    witnesses = {}  # failing triple -> None, in discovery order

    def below(cap):
        return [el for r in range(min(cap, R) + 1) for el in nonunit[r]]

    def o(f, i, g):
        """f o_i g: g in slot i (from 0) of f, units elsewhere."""
        got = circ.get((f, i, g))
        if got is None:
            got = circ[(f, i, g)] = S.plug(f, i, g, f[0] - 1 - i)
        return got

    def pad(width, i, x):
        return (unit,) * i + (x,) + (unit,) * (width - 1 - i)

    def fail(triples):
        # the first triple whose sides differ; with the unit laws broken
        # none may differ, and the last one stands in
        for t in triples:
            lhs, rhs = _assoc_instance(S, *t)
            if lhs != rhs:
                break
        witnesses.setdefault(t, None)

    # D: a composition with two or more non-unit arguments is its iterated
    # o_i, plugging rank-0 arguments first, then rank 1, then higher ranks
    for f, gs in S.iter_compositions():
        order = sorted((g[0], a) for a, g in enumerate(gs) if g != unit)
        if len(order) < 2:
            continue
        args = [unit] * f[0]
        cur = f
        steps = []
        for _, a in order:
            pos = sum(x[0] for x in args[:a])
            steps.append((f, tuple(args), pad(cur[0], pos, gs[a])))
            cur = o(cur, pos, gs[a])
            args[a] = gs[a]
        if cur != S.compose(f, gs):
            fail(steps)

    # every f o_i g within the truncation, with SEQ and PAR over each h
    for f in below(R):
        for g in below(R + 1 - f[0]):
            for i in range(f[0]):
                fg = o(f, i, g)
                for h in below(R + 2 - f[0] - g[0]):
                    for j in range(g[0]):
                        if o(fg, i + j, h) != o(f, i, o(g, j, h)):  # SEQ
                            fail([(f, pad(f[0], i, g), pad(fg[0], i + j, h))])
                    if f[0] - 1 + h[0] > R:
                        continue
                    for j in range(i + 1, f[0]):
                        fh = o(f, j, h)
                        if o(fg, j - 1 + g[0], h) != o(fh, i, g):  # PAR
                            fail([(f, pad(f[0], i, g), pad(fg[0], j - 1 + g[0], h)),
                                  (f, pad(f[0], j, h), pad(fh[0], i, g))])
    return list(witnesses)


def check_axioms(S: FinitaryPreclone, mode="exhaustive", samples=1000, seed=0):
    """Check unit laws and associativity; list every violation found.

    Sampled mode draws ``samples`` random triples (f, gs, hs) with the
    given seed and checks (f.gs).hs = f.(g_1.hs_1, ..., g_n.hs_n) on each.

    Exhaustive mode decides every triple within the truncation without
    walking them.  Write f o_i g for f.(1, ..., g, ..., 1), g in slot i.
    Over non-unit f, g and h, and wherever every term has rank <= trunc:

    - (D) a composition with two or more non-unit arguments equals its
      iterated o_i, plugging the rank-0 arguments first, then rank 1,
      then higher ranks;
    - (SEQ) (f o_i g) o_{i+j} h = f o_i (g o_j h);
    - (PAR) (f o_i g) o_{j-1+|g|} h = (f o_j h) o_i g for i < j.

    Theorem: given the unit laws, D, SEQ and PAR hold iff every triple
    within the truncation is associative.  Each instance is a triple with
    unit padding: SEQ is (f, 1..g..1, 1..h..1), PAR equates two such
    triples through f.(1..g..h..1), and each plugging step of D is
    (f, partial arguments, 1..g..1).  Conversely, by the unit laws and D
    both sides of a triple are values of the tree f(g_1(hs_1), ...,
    g_n(hs_n)) reached by contracting its edges one o_i at a time; SEQ
    moves the contraction of an edge past the one above it and PAR swaps
    two edges below one node, so every order gives one value, as for
    non-symmetric operads (May 1972; Markl-Shnider-Stasheff 2002), whose
    truncations preclones are.

    Truncation: the moves must keep each term within rank trunc.  A
    root-connected partial grafting U of a tree T has rank
    rank(T) + sum (1 - rank(T_v)) over the subtrees T_v hanging off U.
    Plugging rank-0 arguments first keeps each D step within
    max(rank f, result rank); so reduce the rank-0 subtrees first.  Once
    they are reduced, and each node's rank-0 leaves are plugged with it,
    every hanging subtree has rank >= 1, so every root-connected partial
    grafting has rank <= rank(T) <= trunc.

    Every composition within the truncation is evaluated: by the unit
    laws (a unit head, or all-unit arguments), as an o_i, or by D.  So a
    dump missing a composition still raises.  ``assoc_checked`` counts
    the triples decided, and each violation is a failing triple: SEQ's
    own, the failing one of PAR's two, or D's first failing step.
    """
    report = AxiomReport()
    for el in S.elements():
        if S.compose(S.unit, (el,)) != el:
            report.violations.append(("unit-left", el))
        if S.compose(el, (S.unit,) * el[0]) != el:
            report.violations.append(("unit-right", el))
        report.unit_checked += 1

    if mode == "exhaustive":
        report.assoc_checked = _assoc_count(S)
        for f, gs, hs in _assoc_witnesses(S):
            report.violations.append(("assoc", f, gs, hs))
    elif mode == "sampled":
        import random

        rng = random.Random(seed)
        comps = list(S.iter_compositions())
        tuples = {}
        if comps:
            for _ in range(samples):
                f, gs = comps[rng.randrange(len(comps))]
                m = sum(g[0] for g in gs)
                if m not in tuples:
                    tuples[m] = list(S.iter_tuples(m))
                hs = tuples[m][rng.randrange(len(tuples[m]))]
                lhs, rhs = _assoc_instance(S, f, gs, hs)
                if lhs != rhs:
                    report.violations.append(("assoc", f, gs, hs))
                report.assoc_checked += 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report


# ---------------------------------------------------------------------------
# dump format


def el_token(el: El) -> str:
    return f"{el[0]}.{el[1]}"


def parse_el(tok: str) -> El:
    r, _, i = tok.partition(".")
    return (int(r), int(i))


def dump_preclone(S: FinitaryPreclone, generators=None, result_cap=None) -> str:
    """Text dump: sorts, unit, descriptions, generators, all compositions.

    ``result_cap`` limits the listed compositions to those with result rank
    at most the cap (for carriers closed only for evaluation).
    """
    lines = [f"trunc {S.trunc}"]
    for n in range(S.trunc + 1):
        lines.append(f"sort {n} {S.sort_size(n)}")
    lines.append(f"unit {el_token(S.unit)}")
    for el in S.elements():
        lines.append(f"desc {el_token(el)} {S.describe(el)}")
    for g in generators or []:
        lines.append(f"gen {el_token(g)}")
    for f, gs in S.iter_compositions():
        if result_cap is not None and sum(g[0] for g in gs) > result_cap:
            continue
        h = S.compose(f, gs)
        args = " ".join(el_token(g) for g in gs)
        lines.append(f"comp {len(gs)}: {el_token(f)} ({args}) -> {el_token(h)}")
    return "\n".join(lines) + "\n"


def element(S: FinitaryPreclone, el) -> El:
    """S's own handle of el, a (rank, index) pair read from text."""
    if not (0 <= el[0] <= S.trunc and 0 <= el[1] < S.sort_size(el[0])):
        raise ParseError(f"element {el_token(el)} outside the declared sorts")
    return S.sort(el[0])[el[1]]


def load_preclone(text: str):
    """Rebuild a table-backed preclone from a dump; returns (S, generators)."""
    head, sizes, descs, gens, table = {}, {}, {}, [], {}

    def line(lineno, kw, values):
        if kw == "trunc":
            head[kw] = natural(kw, values[0])
        elif kw == "unit":
            head[kw] = parse_el(values[0])
        elif kw == "sort":
            n = natural(kw, values[0])
            if n in sizes:
                raise ParseError(f"a second sort {n} line")
            sizes[n] = natural("size", values[1])
        elif kw == "desc":
            el = parse_el(values[0])
            if el in descs:
                raise ParseError(f"a second desc {el_token(el)} line")
            descs[el] = " ".join(values[1:])
        elif kw == "gen":
            gens.append(parse_el(values[0]))
        else:
            width, f, *args, arrow, h = values
            if arrow != "->":
                raise ParseError(f"expected '->' before the result, not {arrow!r}")
            f, h = parse_el(f), parse_el(h)
            args = tuple(parse_el(p.strip("()")) for p in args if p.strip("()"))
            if not int(width.rstrip(":")) == f[0] == len(args):
                raise ParseError(f"{len(args)} arguments under '{width}' for {el_token(f)}")
            if h[0] != sum(g[0] for g in args):
                raise ParseError(f"result {el_token(h)} does not have the argument ranks' sum")
            if (f, args) in table:
                raise ParseError(f"second comp line for {' '.join(values[1:-2])}")
            table[(f, args)] = h

    usage = {"trunc": "<k>", "sort": "<n> <size>", "unit": "<el>", "desc": "<el> <text>...",
             "gen": "<el>", "comp": "<n>: <f> (<g>...) -> <h>"}
    read_lines(text, usage, line, once=("trunc", "unit"), label="dump line")
    if len(head) < 2:
        raise ParseError("dump missing trunc or unit line")
    trunc, unit = head["trunc"], head["unit"]
    if unit[0] != 1:
        raise ParseError(f"unit {el_token(unit)} is not of rank 1")

    def compose_raw(fkey, gkeys):
        entry = table.get((fkey, tuple(gkeys)))
        if entry is None:
            args = " ".join(map(el_token, gkeys))
            raise ParseError(f"dump has no composition for {el_token(fkey)} ({args})")
        return entry

    S = FinitaryPreclone(trunc, compose_raw, lambda key, rank: descs.get(key, str(key)))
    for n in range(trunc + 1):
        for i in range(sizes.get(n, 0)):
            S.intern(n, (n, i))
    S.set_unit(element(S, unit))
    gens = [element(S, g) for g in gens]
    for (f, gs), h in table.items():
        for el in (f, *gs, h):
            element(S, el)
    return S, gens
