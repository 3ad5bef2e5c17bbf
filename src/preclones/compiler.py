"""Compilation of formulas into block-product recognizers.

The structural induction: atoms become transformation pg-pairs of directly
built automata over the extended alphabet; negation complements the
accepting set inside the valid part; disjunction and conjunction tuple
recognizers into direct products; a quantifier Q_K combines the syntactic
pg-pair of K with a pg-pair recognizing all family languages at once,
through the block product.  The simultaneous recognizer is obtained from
the product of its family's automata, one component per family letter,
minimized and then quotiented by the joint syntactic congruence of its
accepting and validity subsets, which keeps context tables small.  A Q_K
reads only its family's automata, so carriers are built only for the
top-level formula and for each Q_K, each a generated pg-pair built by
``preclone.generated``.

A recognizer's membership test is morphism evaluation into the carrier
followed by an accepting-set lookup; it is meaningful on structures (each
free variable occurring exactly once).  Every recognizer also carries a
companion automaton over the extended alphabet whose language agrees with
the formula on valid structures; ``Compiler.automaton`` builds it alone,
for the next quantifier level.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .automata import (
    TreeAutomaton,
    build,
    complement,
    explore,
    intersect,
    minimize,
    product,
    union,
)
from .errors import DeterminismViolation
from .logic import (
    _Nodes,
    And,
    ATOMS,
    FalseF,
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
    TrueF,
    ext_symbol,
    extend_alphabet,
    free_vars,
    interpretations,
    node_evaluator,
    sentence_evaluator,
    split_symbol,
)
from .preclone import (
    DEFAULT_BUDGET,
    Morphism,
    PgPair,
    accepting_elements,
    direct_product,
    generated,
    transformation_pgpair,
)
from .syntactic import (
    Context,
    insert_in_context,
    syntactic_congruence,
    syntactic_pgpair,
)
from .preclone import quotient as preclone_quotient
from .blockprod import BlockProduct
from .trees import RankedAlphabet, RankedTree, forest, rank as tree_rank


@dataclass
class CompiledRecognizer:
    pgpair: PgPair
    gamma: Morphism  # from the extended alphabet into the carrier
    accepting: frozenset  # subset of the carrier's sort k
    valid: frozenset  # carrier elements that images of valid structures hit
    rank: int
    variables: tuple  # sorted free-variable set Y
    sigma: RankedAlphabet
    ext_alphabet: RankedAlphabet  # Sigma_Y
    automaton: TreeAutomaton  # companion, agrees with the formula on structures
    tau: Morphism = None  # quantifier case only: the simultaneous recognizer


def membership(rec: CompiledRecognizer, structure: RankedTree) -> bool:
    """Evaluate a structure through gamma and test the accepting set."""
    if tree_rank(structure) != rec.rank:
        raise ValueError(
            f"structure has rank {tree_rank(structure)}, recognizer {rec.rank}"
        )
    return rec.gamma.eval(structure) in rec.accepting


# ---------------------------------------------------------------------------
# atomic automata


@functools.cache
def _counts_add(counts, extra):
    return tuple(min(2, c + e) for c, e in zip(counts, extra))


def _letters(ext: RankedAlphabet, variables) -> dict:
    """name -> (base, zs, occurrence vector over ``variables``) for each
    letter of the extended alphabet, which is Sigma_W for W = variables."""
    table = {}
    for name, _ in ext.symbols:
        base, zs = split_symbol(name)
        table[name] = (base, zs, tuple(int(v in zs) for v in variables))
    return table


def _atom_automaton(phi, sigma: RankedAlphabet, variables, k: int) -> tuple:
    """Automaton over Sigma_Y for an atomic formula, plus its two final sets.

    States combine saturated per-variable occurrence counts with the
    predicate's own bookkeeping; variable leaves get dedicated states so
    the leaf-inspecting atoms can see them.  Returns
    (automaton-with-sat-finals, valid_finals).

    Every node whose counts hold a 2 goes to one sink state.  This is
    sound: ``_counts_add`` is monotone and saturates at 2, so every
    ancestor of such a node holds a 2 too; such a node is never valid
    (counts all 1) and so never sat-final, and no context leads it to an
    accepting or valid state.  All these states accept no context, and
    ``minimize`` would merge them anyway.  The sink carries (0, ..., 0, 2),
    the least counts holding a 2, so it sorts just before every state it
    replaces and the minimum is numbered as without it.
    """
    variables = tuple(sorted(variables))
    vpos = {v: i for i, v in enumerate(variables)}
    ext = extend_alphabet(sigma, variables)
    zeros = (0,) * len(variables)
    ones = (1,) * len(variables)
    dead = ("nv", zeros[1:] + (2,), ())
    letters = _letters(ext, variables)

    # state: ("var", j) for a v_j leaf, else ("nv", counts, payload)
    def node_state(name, child_states):
        base, zs, extra = letters[name]
        counts = zeros
        for s in child_states:
            if s[0] == "nv":
                counts = _counts_add(counts, s[1])
        counts = _counts_add(counts, extra)
        if 2 in counts:
            return dead  # before _payload, which cannot read the sink's ()
        return ("nv", counts, _payload(phi, base, zs, child_states, vpos, k))

    # a run ends on a "var" state only for the unit tree, which is a valid
    # structure exactly when there are no variables to place; it satisfies
    # the constant true and nothing else (every other atom needs a node)
    unit_ok = not variables

    def is_sat(s):
        if s[0] == "var":
            return unit_ok and isinstance(phi, TrueF)
        return s[1] == ones and _is_final(phi, s[2])

    var_states = [("var", j) for j in range(1, k + 1)]
    aut, ordered = build(ext, k, var_states, node_state, is_sat)
    valid = frozenset(
        i
        for i, s in enumerate(ordered)
        if (s[0] == "nv" and s[1] == ones) or (s[0] == "var" and unit_ok)
    )
    return aut, valid


def _payload(phi, base, zs, child_states, vpos, k):
    def child_counts(s):
        return s[1] if s[0] == "nv" else (0,) * len(vpos)

    def child_payload(s):
        return s[2] if s[0] == "nv" else None

    if isinstance(phi, (TrueF, FalseF)):
        return ()
    if isinstance(phi, PSym):
        sat = any(
            child_payload(s) is not None and child_payload(s)[0] for s in child_states
        )
        return (sat or (phi.x in zs and base == phi.sym),)
    if isinstance(phi, Root):
        return (phi.x in zs,)  # re-evaluated at every level; read at the root
    if isinstance(phi, Less):
        sat = any(
            child_payload(s) is not None and child_payload(s)[0] for s in child_states
        )
        if phi.x in zs:
            sat = sat or any(
                child_counts(s)[vpos[phi.y]] >= 1 for s in child_states
            )
        return (sat,)
    if isinstance(phi, Succ):
        sat = any(
            child_payload(s) is not None and child_payload(s)[1] for s in child_states
        )
        if phi.x in zs and phi.i <= len(child_states):
            s = child_states[phi.i - 1]
            sat = sat or (child_payload(s) is not None and child_payload(s)[0])
        return (phi.y in zs, sat)
    if isinstance(phi, Max):
        sat = any(
            child_payload(s) is not None and child_payload(s)[0] for s in child_states
        )
        if phi.x in zs and phi.i <= len(child_states):
            s = child_states[phi.i - 1]
            sat = sat or (s[0] == "var" and s[1] == phi.j)
        return (sat,)
    if isinstance(phi, (LeftJ, RightJ)):
        # payload: (vars in the subtree, the tracked index), both saturated at
        # k+1 so fake reachability combinations cannot inflate them; for
        # left_j the index is the count of vars left of x's subtree, for
        # right_j it is that count plus the vars inside it
        cap = k + 1
        nv = 0
        pos = None
        for s in child_states:
            if s[0] == "var":
                nv += 1
            else:
                _, _, (c_nv, c_pos) = s
                if c_pos is not None and pos is None:
                    pos = min(cap, nv + c_pos)
                nv += c_nv
        nv = min(cap, nv)
        if phi.x in zs:
            pos = 0 if isinstance(phi, LeftJ) else nv
        return (nv, pos)
    raise TypeError(f"not an atomic formula: {phi!r}")


def _is_final(phi, payload):
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, (PSym, Root, Less, Max)):
        return payload[0]
    if isinstance(phi, Succ):
        return payload[1]
    if isinstance(phi, LeftJ):
        return payload[1] == phi.j
    if isinstance(phi, RightJ):
        return payload[1] is not None and payload[1] + 1 == phi.j
    raise TypeError(f"not an atomic formula: {phi!r}")


def compile_atomic(phi, sigma: RankedAlphabet, variables, k: int,
                   budget=DEFAULT_BUDGET) -> CompiledRecognizer:
    """Recognizer for an atomic formula (or a constant) on Y-structures."""
    variables = tuple(sorted(variables))
    aut, valid_states = _atom_automaton(phi, sigma, variables, k)
    aut, (valid_states,) = minimize(aut, [valid_states])
    trunc = max(k, sigma.max_arity)
    res = transformation_pgpair(aut, trunc, budget=budget, eval_cap=k)
    accepting = frozenset(accepting_elements(res))
    valid = frozenset(accepting_elements(res, valid_states))
    return CompiledRecognizer(
        pgpair=res.pgpair,
        gamma=res.morphism,
        accepting=accepting,
        valid=valid,
        rank=k,
        variables=variables,
        sigma=sigma,
        ext_alphabet=aut.alphabet,
        automaton=aut,
    )


# ---------------------------------------------------------------------------
# products of recognizers


def _combine(self, phi, variables) -> CompiledRecognizer:
    r1, r2 = self.compile(phi.left, variables), self.compile(phi.right, variables)
    is_or = isinstance(phi, Or)
    aut = self.automaton(phi, variables)
    if r1.pgpair is r2.pgpair:
        acc = r1.accepting | r2.accepting if is_or else r1.accepting & r2.accepting
        return replace(r1, accepting=frozenset(acc), automaton=aut)
    # the sub-pg-pair that the tupled morphism generates in the product
    k, g1, g2 = r1.rank, r1.gamma, r2.gamma
    letters = ((name, m, (g1(name), g2(name))) for name, m in r1.ext_alphabet.symbols)
    sub, image = generated(direct_product([r1.pgpair.preclone, r2.pgpair.preclone]),
                           letters, k, self.budget)
    carrier = sub.preclone
    pairs = {el: carrier.key(el) for el in carrier.sort(k)}
    valid = frozenset(el for el, (x1, x2) in pairs.items()
                      if x1 in r1.valid and x2 in r2.valid)
    test = any if is_or else all
    accepting = frozenset(
        el for el in valid if test(x in r.accepting for x, r in zip(pairs[el], (r1, r2)))
    )
    return CompiledRecognizer(
        sub, Morphism(r1.ext_alphabet, carrier, image), accepting, valid, k,
        r1.variables, r1.sigma, r1.ext_alphabet, aut,
    )


def _negate(self, phi, variables) -> CompiledRecognizer:
    rec = self.compile(phi.sub, variables)
    return replace(rec, accepting=frozenset(rec.valid - rec.accepting),
                   automaton=self.automaton(phi, variables))


# ---------------------------------------------------------------------------
# the quantifier case


def _image_closure(T, tau: Morphism, ext, k, W, x):
    """Images of rank-k trees, annotated with counts and x's node rank.

    Explores the tree algebra bottom-up, grading a state by its element's
    rank and capping at k: every (element, counts, xrank) that a real tree
    of rank <= k over Sigma_W produces is reached, exactly.  Returns the
    set of (element, counts, xrank) of rank k, with xrank None when x does
    not occur (or occurs twice, in which case counts saturate).
    """
    zeros = (0,) * len(W)
    letters = {
        name: (tau.image[name], extra, ext.arity[name] if x in zs else None)
        for name, (_, zs, extra) in _letters(ext, W).items()
    }

    def step(name, combo):
        img, extra, xrank = letters[name]
        counts = zeros
        for _, c, xr in combo:
            counts = _counts_add(counts, c)
            if xrank is None:
                xrank = xr
        counts = _counts_add(counts, extra)
        return T.compose(img, [el for el, _, _ in combo]), counts, xrank

    states, _ = explore(ext, [(T.unit, zeros, None)], step,
                        grade=lambda s: s[0][0], cap=k)
    return {s for s in states if s[0][0] == k}


def _compile_qk(self, phi: QK, variables) -> CompiledRecognizer:
    sigma, k = self.sigma, self.k
    Y = tuple(sorted(variables))
    x = phi.var
    if x in Y:
        raise ValueError(f"bound variable {x} collides with a free variable")
    W = tuple(sorted(set(Y) | {x}))
    delta = phi.lang.alphabet
    uncovered = set(sigma.arities()) - set(delta.arities())
    if uncovered:
        raise ValueError(
            f"the quantifier language's alphabet has no letters of arity {sorted(uncovered)}"
        )

    # the language side: syntactic pg-pair of K
    trunc_S = max(k + 1, delta.max_arity, sigma.max_arity)
    syn = syntactic_pgpair(phi.lang, trunc_S, budget=self.budget, verify=False)
    S = syn.pgpair.preclone
    kappa = syn.morphism.image
    alpha_K = syn.accepting

    # the family side: the product of the family's automata over W, which
    # is all Q_K reads of its members; a formula and its negation share one
    # transition table, so their part of the reachable product is the diagonal
    auts = {d: self.automaton(sub, W) for d, sub in phi.family}
    order = sorted(auts)
    joint, tuples = product([auts[d] for d in order])
    finals_in = [
        frozenset(i for i, s in enumerate(tuples) if s[j] in auts[d].finals)
        for j, d in enumerate(order)
    ]
    joint, finals_out = minimize(joint, finals_in)
    F_delta = dict(zip(order, finals_out))

    # simultaneous recognizer: transformation pg-pair of the joint automaton
    ext_W = extend_alphabet(sigma, W)
    trunc_T = max(k + 1, sigma.max_arity)
    res_T = transformation_pgpair(joint, trunc_T, budget=self.budget)
    T0 = res_T.pgpair.preclone
    tau0 = res_T.morphism
    P0 = {d: frozenset(accepting_elements(res_T, F_delta[d])) for d in order}

    # exact image sets and the determinism check
    images = _image_closure(T0, tau0, ext_W, k, W, x)
    ones = (1,) * len(W)
    y_only = tuple(0 if v == x else 1 for v in W)
    valid_Wx = set()
    valid_Y = set()
    arity_delta = {n: sorted(delta.by_arity(n)) for n in delta.arities()}
    for el, counts, xrank in images:
        if counts == ones:
            valid_Wx.add(el)
            if xrank is not None:
                holding = [d for d in arity_delta.get(xrank, []) if el in P0[d]]
                if len(holding) != 1:
                    raise DeterminismViolation(
                        f"family not deterministic: image with x at a rank-"
                        f"{xrank} node lies in {holding}",
                        satisfied=holding,
                    )
        if counts == y_only:
            valid_Y.add(el)

    # quotient by the joint syntactic congruence of all distinguished subsets
    extra = [P0[d] for d in order[1:]] + [frozenset(valid_Wx), frozenset(valid_Y)]
    blocks = syntactic_congruence(T0, k, P0[order[0]], extra_sets=extra)
    T, proj = preclone_quotient(T0, blocks, verify=False)
    tau = Morphism(ext_W, T, {name: proj[el] for name, el in tau0.image.items()})
    P = {d: frozenset(proj[e] for e in P0[d]) for d in order}
    valid_Y = frozenset(proj[e] for e in valid_Y)

    # generators gamma(sigma, Z) = (F_{sigma,Z}, tau(sigma, Z))
    ext_Y = extend_alphabet(sigma, Y)
    bp = BlockProduct(S, T, k, trunc=max(k, sigma.max_arity))
    gen_keys = {}
    default = {
        n: syn.pgpair.generators_of_rank(n)[0] for n in delta.arities()
    }
    for name, n in ext_Y.symbols:
        base, zs = split_symbol(name)
        with_x = tau.image[ext_symbol(base, set(zs) | {x})]

        def f_value(c, n=n, with_x=with_x):
            w = insert_in_context(T, with_x, c)
            holding = [d for d in arity_delta.get(n, []) if w in P[d]]
            if len(holding) == 1:
                return kappa[holding[0]]
            return default[n]

        gen_keys[name] = bp.make(f_value, tau.image[name])

    carrier_pg = bp.carrier_pgpair(list(gen_keys.values()), self.budget, eval_cap=k)
    carrier = carrier_pg.preclone
    image = {name: carrier.lookup(bp.rank_of(key), key) for name, key in gen_keys.items()}
    gamma = Morphism(ext_Y, carrier, image)

    D0 = Context(T.unit, 0, (T.unit,) * k, 0)
    d0_idx = bp.ctx_index[k][D0]
    accepting = frozenset(
        el for el in carrier.sort(k) if carrier.key(el)[0][d0_idx] in alpha_K
    )
    valid = frozenset(
        el for el in carrier.sort(k) if carrier.key(el)[1] in valid_Y
    )
    accepting = accepting & valid

    aut = _carrier_automaton(carrier, gamma, accepting, k, ext_Y)
    tau_Y = Morphism(ext_Y, T, {name: tau.image[name] for name, _ in ext_Y.symbols})
    return CompiledRecognizer(
        carrier_pg, gamma, accepting, valid, k, Y, sigma, ext_Y, aut, tau=tau_Y,
    )


def _carrier_automaton(carrier, gamma, accepting, k, ext) -> TreeAutomaton:
    """A DFTA over the extended alphabet simulating carrier evaluation.

    States are the carrier elements reached from the unit, graded by rank
    and capped at k; ``build``'s sink stands for the combinations no
    rank-k tree produces.
    """
    aut, _ = build(ext, k, [carrier.unit] * k,
                   lambda name, els: carrier.compose(gamma.image[name], els),
                   lambda el: el in accepting, grade=lambda el: el[0], cap=k)
    return minimize(aut)


# ---------------------------------------------------------------------------
# the compiler


class Compiler:
    """Recognizers and companion automata, each cached on (formula,
    sorted variables)."""

    def __init__(self, sigma: RankedAlphabet, k: int, budget=DEFAULT_BUDGET):
        self.sigma = sigma
        self.k = k
        self.budget = budget
        self._cache = {}
        self._automata = {}

    def _key(self, phi, variables):
        variables = tuple(sorted(variables))
        missing = free_vars(phi) - set(variables)
        if missing:
            raise ValueError(f"free variables {sorted(missing)} not in {variables}")
        return phi, variables

    def compile(self, phi, variables) -> CompiledRecognizer:
        key = self._key(phi, variables)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = self._compile(*key)
            self._automata.setdefault(key, got.automaton)
        return got

    def automaton(self, phi, variables) -> TreeAutomaton:
        """The automaton ``compile(phi, variables)`` carries, built without a
        carrier unless ``phi`` is a Q_K, whose automaton is read off one."""
        key = self._key(phi, variables)
        got = self._automata.get(key)
        if got is None:
            if isinstance(phi, ATOMS) or isinstance(phi, (TrueF, FalseF)):
                aut, valid = _atom_automaton(phi, self.sigma, key[1], self.k)
                got = minimize(aut, [valid])[0]  # as compile_atomic minimizes it
            elif isinstance(phi, Not):
                got = complement(self.automaton(phi.sub, key[1]))
            elif isinstance(phi, (Or, And)):
                got = minimize((union if isinstance(phi, Or) else intersect)(
                    self.automaton(phi.left, key[1]), self.automaton(phi.right, key[1])))
            else:  # a Q_K; _compile rejects what is not a formula
                got = self.compile(phi, key[1]).automaton
            self._automata[key] = got
        return got

    def _compile(self, phi, variables):
        if isinstance(phi, ATOMS) or isinstance(phi, (TrueF, FalseF)):
            return compile_atomic(phi, self.sigma, variables, self.k, self.budget)
        if isinstance(phi, Not):
            return _negate(self, phi, variables)
        if isinstance(phi, (Or, And)):
            return _combine(self, phi, variables)
        if isinstance(phi, QK):
            return _compile_qk(self, phi, variables)
        raise TypeError(f"not a formula: {phi!r}")


def compile_formula(phi, sigma: RankedAlphabet, variables, k: int,
                    budget=DEFAULT_BUDGET) -> CompiledRecognizer:
    """Compile a formula over ``sigma`` with free variables in ``variables``.

    The pipeline works at the minimal sound truncation of each stage.
    """
    return Compiler(sigma, k, budget).compile(phi, variables)


# ---------------------------------------------------------------------------
# the equivalence harness


@dataclass
class EquivalenceReport:
    checked: int
    accepted: int
    mismatches: list  # of (tree, interpretation)

    @property
    def ok(self):
        return not self.mismatches

    def summary(self):
        verdict = "PASS" if self.ok else f"FAIL ({len(self.mismatches)} mismatches)"
        return f"checked {self.checked} structures, {self.accepted} accepted: {verdict}"


def check_equivalence(phi, rec: CompiledRecognizer, max_nv: int) -> EquivalenceReport:
    """Compare satisfaction against recognizer membership on every structure
    with at most ``max_nv`` NV nodes, both read off its node table: gamma is
    evaluated once per entry of the enumeration's forest, and a structure
    recomposes only the nodes holding a variable and their ancestors.  A sentence
    that ``sentence_evaluator`` decides needs a table only to raise or to show a mismatch."""
    holds, mismatches = node_evaluator(phi), []
    checked = accepted = 0
    dag, levels = forest(rec.sigma, rec.rank, max_nv)
    values, image, compose = rec.gamma.eval_dag(dag), rec.gamma.image, rec.gamma.target.compose
    if not rec.variables and (local := sentence_evaluator(phi)):
        sat = local(dag)
        for s in itertools.chain.from_iterable(levels):
            want = holds(_Nodes(dag, s), {}) if sat[s] is None else sat[s]  # None: it raises
            checked, accepted = checked + 1, accepted + want
            if want != (values[s] in rec.accepting):
                mismatches.append((_Nodes(dag, s).tree(), {}))
        return EquivalenceReport(checked, accepted, mismatches)
    for nodes, env in interpretations(rec.sigma, rec.variables, rec.rank, max_nv, (dag, levels)):
        letters = {i: ext_symbol(nodes.labels[i], [z for z, j in env.items() if j == i])
                   for i in env.values()}  # of the nodes holding a variable
        recomposed, least = {}, len(nodes.labels)  # least: the last node recomposed
        for i in reversed(range(max(letters, default=-1) + 1)):
            if i in letters or least < nodes.end[i]:  # i's subtree holds a recomposed node
                gs = [recomposed[c] if c in recomposed else values[s]
                      for c, s in zip(nodes.kids[i], dag[nodes.serials[i]][1])]
                recomposed[i], least = compose(image[letters.get(i, nodes.labels[i])], gs), i
        want = holds(nodes, env)
        checked, accepted = checked + 1, accepted + want
        if want != (recomposed.get(0, values[nodes.serial]) in rec.accepting):
            mismatches.append((nodes.tree(), {z: nodes.paths[i] for z, i in env.items()}))
    return EquivalenceReport(checked, accepted, mismatches)
