"""Contexts, the syntactic congruence, and syntactic pg-pairs.

An n-ary context in sort k is (u, k1, v, k2): u of rank k1+1+k2, v a
width-n tuple of total rank k-(k1+k2).  A rank-n element f is plugged in
as u . (k1 units + f.v + k2 units).  The congruence is computed on a
finitary recognizer (here: the transformation preclone of the minimized
automaton), which is sound because every context of the free preclone
factors through the recognizing morphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import minimize
from .errors import RankOverflow
from .preclone import (
    FinitaryPreclone,
    Morphism,
    PgPair,
    accepting_elements,
    quotient,
    transformation_pgpair,
)
from .trees import compositions


@dataclass(frozen=True)
class Context:
    u: tuple  # El of rank k1+1+k2
    k1: int
    v: tuple  # tuple of El, total rank k-(k1+k2)
    k2: int


def enumerate_contexts(T: FinitaryPreclone, k: int, n: int):
    """All n-ary contexts in sort k over T's carrier, deterministic order.

    Requires the truncation to reach rank k+1 so every u-shape exists.
    """
    if k + 1 > T.trunc:
        raise RankOverflow(f"contexts in sort {k} need truncation >= {k + 1}")
    out = []
    for k1 in range(k + 1):
        for k2 in range(k - k1 + 1):
            ell = k - k1 - k2
            if n == 0 and ell != 0:
                continue
            vs = []
            for ranks in compositions(ell, n):
                pools = [T.sort(r) for r in ranks]
                if any(not p for p in pools):
                    continue
                vs.extend(itertools.product(*pools))
            if not vs:
                continue
            for u in T.sort(k1 + 1 + k2):
                for v in vs:
                    out.append(Context(u, k1, tuple(v), k2))
    return out


def insert_in_context(T: FinitaryPreclone, f, c: Context):
    """u . (k1 units + f.v + k2 units); for rank-0 f this is u.(k1+f+k2)."""
    fv = T.compose(f, c.v)
    return T.plug(c.u, c.k1, fv, c.k2)


def stack_contexts(T: FinitaryPreclone, C: Context, D: Context) -> Context:
    """The context C.D: insert into D, then insert the result into C.

    C is n-ary in sort k and D is m-ary in sort n; C.D is m-ary in sort k
    with insert(f, C.D) == insert(insert(f, D), C) for every rank-m f.
    D.u absorbs the first D.k1 and last D.k2 components of C.v and is
    plugged into C.u; each component of D.v absorbs its slice of the
    middle of C.v.  Stacking is associative.

    Truncation: every intermediate has rank at most k+1, the rank bound
    that contexts in sort k already need (D.u composed with the absorbed
    components has rank at most k+1 - C.k1 - C.k2, and each middle slice
    composes into a rank at most k), so T's sorts suffice.
    """
    n = len(C.v)
    if D.k1 + _rank(D.v) + D.k2 != n:
        raise ValueError(f"context {D} is not in sort {n}")
    left = C.v[: D.k1]
    middle = C.v[D.k1 : n - D.k2]
    right = C.v[n - D.k2 :]
    u = T.plug(C.u, C.k1, T.compose(D.u, left + (T.unit,) + right), C.k2)
    v = []
    pos = 0
    for w in D.v:
        v.append(T.compose(w, middle[pos : pos + w[0]]))
        pos += w[0]
    return Context(u, C.k1 + _rank(left), tuple(v), _rank(right) + C.k2)


def _rank(els):
    return sum(el[0] for el in els)


def is_L_context(T: FinitaryPreclone, P, f, c: Context) -> bool:
    return insert_in_context(T, f, c) in P


def syntactic_congruence(T: FinitaryPreclone, k: int, P, extra_sets=()):
    """Partition of each sort by L-context signatures.

    ``P`` is a subset of sort k; ``extra_sets`` adds further rank-k sets
    every class must saturate (used to quotient by the joint syntactic
    congruence of several languages at once).  Returns blocks_by_rank in
    the shape quotient() expects.
    """
    sets = [frozenset(P)] + [frozenset(s) for s in extra_sets]
    blocks_by_rank = []
    for n in range(T.trunc + 1):
        ctxs = enumerate_contexts(T, k, n)
        groups = {}
        for f in T.sort(n):
            sig = []
            for c in ctxs:
                w = insert_in_context(T, f, c)
                sig.append(tuple(w in s for s in sets))
            groups.setdefault(tuple(sig), []).append(f)
        # deterministic block order: by least member
        blocks = sorted(groups.values(), key=lambda b: b[0])
        blocks_by_rank.append(blocks)
    return blocks_by_rank


@dataclass
class SyntacticResult:
    pgpair: PgPair
    morphism: Morphism  # from the alphabet into the quotient
    accepting: set  # image of L in the quotient, a subset of sort k
    projection: dict  # recognizer element -> quotient element


def syntactic_pgpair(automaton, trunc, budget=None, verify=True) -> SyntacticResult:
    """Syntactic pg-pair of the rank-k language of ``automaton``.

    Pipeline: minimize the automaton, take its transformation pg-pair,
    partition by L-context signatures with P the image of the language,
    and quotient.  The returned morphism recognizes the language via the
    accepting set.
    """
    k = automaton.rank
    if trunc < k + 1 or trunc < automaton.alphabet.max_arity:
        raise RankOverflow("need truncation >= k+1 and >= max arity")
    a = minimize(automaton)
    kwargs = {} if budget is None else {"budget": budget}
    res = transformation_pgpair(a, trunc, **kwargs)
    S = res.pgpair.preclone
    P = accepting_elements(res)
    blocks = syntactic_congruence(S, k, P)
    Q, proj = quotient(S, blocks, verify=verify)
    image = {name: proj[el] for name, el in res.morphism.image.items()}
    morphism = Morphism(automaton.alphabet, Q, image)
    gens = list(dict.fromkeys(image.values()))
    return SyntacticResult(PgPair(Q, gens), morphism, {proj[e] for e in P}, proj)


# ---------------------------------------------------------------------------
# isomorphism search


def find_isomorphism(S: FinitaryPreclone, T: FinitaryPreclone):
    """A rank-preserving bijection respecting unit and composition, or None.

    Tries every combination of per-rank bijections (the unit fixed) until
    one respects every composition; feasible for small sorts only.
    """
    if S.trunc != T.trunc:
        return None
    for n in range(S.trunc + 1):
        if S.sort_size(n) != T.sort_size(n):
            return None

    per_rank = []
    for n in range(S.trunc + 1):
        elems = T.sort(n)
        perms = [
            dict(zip(S.sort(n), p)) for p in itertools.permutations(elems)
        ]
        if n == 1:  # unit must map to unit
            perms = [p for p in perms if p[S.unit] == T.unit]
        per_rank.append(perms)

    comps = list(S.iter_compositions())

    def respects(mapping):
        return all(
            mapping[S.compose(f, gs)] == T.compose(mapping[f], [mapping[g] for g in gs])
            for f, gs in comps
        )

    for combo in itertools.product(*per_rank):
        mapping = {}
        for p in combo:
            mapping.update(p)
        if respects(mapping):
            return mapping
    return None


def isomorphic(S, T) -> bool:
    return find_isomorphism(S, T) is not None
