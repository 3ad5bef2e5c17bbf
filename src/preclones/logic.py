"""The quantifier logic on ranked trees.

Formulas of rank k over an alphabet are built from the atomic predicates,
Boolean connectives, and generalized quantifiers Q_K carrying a rank-k
tree language K over a letter alphabet Delta together with a family of
formulas, one per Delta-letter, that is deterministic with respect to the
bound variable.  Satisfaction of Q_K relabels every NV node by the unique
letter whose formula holds there (the characteristic tree) and tests
membership of the result in K.

First-order variables denote NV nodes; variable leaves are place markers
and are never pointed at.  The unit tree has no NV nodes, so formulas
with free variables cannot be interpreted on it; sentences can.

Satisfaction is evaluated on a node table: a tree's NV nodes in preorder,
with children, subtree ends and variable counts as arrays, so that every
atom is a constant-time read.  A formula is compiled once into a function
of (node table, variable -> node index); Q_K picks each node's letter and
runs K on it in one reverse-preorder pass over the arrays.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import defaultdict
from dataclasses import dataclass, replace

from .automata import TreeAutomaton, boolean_alphabet, k_exists, k_mod
from .errors import DeterminismViolation, ParseError
from .trees import (
    RankedAlphabet,
    RankedTree,
    enumerate_trees,
    fold,
    forest,
    nv_nodes,
    replace_at,
    subtree_at,
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class PSym:
    sym: str
    x: str


@dataclass(frozen=True)
class Less:
    x: str
    y: str


@dataclass(frozen=True)
class Succ:
    i: int
    x: str
    y: str


@dataclass(frozen=True)
class Root:
    x: str


@dataclass(frozen=True)
class Max:
    i: int
    j: int
    x: str


@dataclass(frozen=True)
class LeftJ:
    j: int
    x: str


@dataclass(frozen=True)
class RightJ:
    j: int
    x: str


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class QK:
    """Quantifier node: language, bound variable, family (delta, formula)."""

    name: str
    lang: TreeAutomaton  # over Delta, rank k; compared by identity
    var: str
    family: tuple  # ((delta_name, Formula), ...) covering all of Delta

    def formulas(self):
        return dict(self.family)


TRUE = TrueF()
FALSE = FalseF()

ATOMS = (PSym, Less, Succ, Root, Max, LeftJ, RightJ)


def free_vars(phi) -> frozenset:
    if isinstance(phi, PSym):
        return frozenset({phi.x})
    if isinstance(phi, (Less, Succ)):
        return frozenset({phi.x, phi.y})
    if isinstance(phi, (Root, Max, LeftJ, RightJ)):
        return frozenset({phi.x})
    if isinstance(phi, (TrueF, FalseF)):
        return frozenset()
    if isinstance(phi, Not):
        return free_vars(phi.sub)
    if isinstance(phi, (Or, And)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, QK):
        out = frozenset()
        for _, sub in phi.family:
            out |= free_vars(sub)
        return out - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# satisfaction


def satisfies(t: RankedTree, lam: dict, phi) -> bool:
    """(t, lam) |= phi, with lam mapping free variables to NV node paths.

    Raises ValueError when a free variable is uninterpreted or not at an NV
    node.  To evaluate one formula on many structures, use ``evaluator``.
    """
    fv = free_vars(phi)
    missing = fv - set(lam)
    if missing:
        raise ValueError(f"interpretation misses free variables {sorted(missing)}")
    nv = set(nv_nodes(t))
    for x in fv:
        if lam[x] not in nv:
            raise ValueError(f"{x} is not interpreted at an NV node")
    return evaluator(phi)(t, {x: lam[x] for x in fv})


def evaluator(phi):
    """``satisfies(t, lam, phi)`` as a function of (t, lam), without its checks.

    phi is compiled once; calls in a row on one tree share its node table.
    """
    run, last = node_evaluator(phi), [None, None]

    def holds(t, lam):
        if last[0] is not t:
            last[:] = t, _Nodes(t)
        return run(last[1], {z: last[1].paths.index(p) for z, p in lam.items()})

    return holds


class _Nodes:
    """A tree's NV nodes in preorder, as arrays each atom reads in O(1).

    A child or the root is a node index, or -j for the leaf v_j.  end[i] is
    one past the last node of i's subtree; left[i] counts the variables
    left of it and right[i] - 1 those up to its end.  serial is the tree's
    entry in the ``trees.forest`` dag it came from, if any."""

    def __init__(self, t: RankedTree, serial=None):
        self.tree, self.serial, self.labels, self.kids = t, serial, [], []
        self.end, self.left, self.right, self.leaves = [], [], [], []
        self.root = self._add(t)

    def _add(self, s):
        label = s.label
        if label.__class__ is int:  # a variable leaf
            self.leaves.append(label)
            return -label
        i = len(self.labels)
        self.labels.append(label)
        self.left.append(len(self.leaves))
        self.kids.append(None)
        self.end.append(None)
        self.right.append(None)
        self.kids[i] = tuple([self._add(c) for c in s.children]) if s.children else ()
        self.end[i], self.right[i] = len(self.labels), len(self.leaves) + 1
        return i

    @functools.cached_property
    def paths(self):
        """Each node's path, computed on first use."""
        return nv_nodes(self.tree)


def node_evaluator(phi):
    """phi as a function of (nodes, env): a node table of ``interpretations``
    and a map of phi's free variables to node indices."""
    if isinstance(phi, TrueF):
        return lambda n, e: True
    if isinstance(phi, FalseF):
        return lambda n, e: False
    if isinstance(phi, PSym):
        sym, x = phi.sym, phi.x
        return lambda n, e: n.labels[e[x]] == sym
    if isinstance(phi, Less):
        x, y = phi.x, phi.y
        return lambda n, e: e[x] < e[y] < n.end[e[x]]
    if isinstance(phi, Succ):
        i, x, y = phi.i - 1, phi.x, phi.y
        return lambda n, e: n.kids[e[x]][i:i + 1] == (e[y],)
    if isinstance(phi, Root):
        x = phi.x
        return lambda n, e: e[x] == 0
    if isinstance(phi, Max):
        i, leaf, x = phi.i - 1, (-phi.j,), phi.x
        return lambda n, e: n.kids[e[x]][i:i + 1] == leaf
    if isinstance(phi, LeftJ):
        j, x = phi.j, phi.x
        return lambda n, e: n.left[e[x]] == j
    if isinstance(phi, RightJ):
        j, x = phi.j, phi.x
        return lambda n, e: n.right[e[x]] == j
    if isinstance(phi, Not):
        sub = node_evaluator(phi.sub)
        return lambda n, e: not sub(n, e)
    if isinstance(phi, Or):
        left, right = node_evaluator(phi.left), node_evaluator(phi.right)
        return lambda n, e: left(n, e) or right(n, e)
    if isinstance(phi, And):
        left, right = node_evaluator(phi.left), node_evaluator(phi.right)
        return lambda n, e: left(n, e) and right(n, e)
    if isinstance(phi, QK):
        aut, x, by_rank = phi.lang, phi.var, _by_rank(phi.lang.alphabet, phi.formulas())

        def holds(nodes, env):
            # one reverse-preorder pass: each node's letter, as in _letters, and K's state
            for j in nodes.leaves:
                if not 1 <= j <= aut.rank:
                    raise ValueError(f"variable v{j} outside rank {aut.rank}")
            env, kids_of, delta = dict(env), nodes.kids, aut.transitions
            # states[-j] is the state of v_j, and children follow their parent
            states = [0] * len(kids_of) + list(reversed(aut.var_state))
            for i in reversed(range(len(kids_of))):
                env[x], kids = i, kids_of[i]
                holding = by_rank[len(kids)](nodes, env)
                if len(holding) != 1:
                    _letters(nodes, env, x, by_rank)  # raises at the first such node
                try:
                    states[i] = delta[holding[0]][tuple(map(states.__getitem__, kids))]
                except KeyError:
                    raise ValueError(f"symbol {holding[0]!r} not in automaton alphabet") from None
            return states[nodes.root] in aut.finals

        if free_vars(phi):
            return holds
        last = [None, None]  # a closed Q_K has one value per node table

        def closed(nodes, env):
            if last[0] is not nodes:
                last[:] = nodes, holds(nodes, env)
            return last[1]

        return closed
    raise TypeError(f"not a formula: {phi!r}")


def _by_rank(delta: RankedAlphabet, formulas):
    """rank -> function of (nodes, env) listing the letters of that rank whose
    formulas hold, in delta's order; of a pair phi, !phi only phi is evaluated."""
    out = defaultdict(lambda: lambda n, e: [])  # no letter of a rank not in delta
    for m in delta.arities():
        ds = delta.by_arity(m)
        fs = [formulas[d] for d in ds]
        if len(ds) == 2 and Not(fs[0]) == fs[1]:
            f, a, b = node_evaluator(fs[0]), (ds[0],), (ds[1],)
            out[m] = lambda n, e, f=f, a=a, b=b: a if f(n, e) else b
        else:
            evs = [(d, node_evaluator(f)) for d, f in zip(ds, fs)]
            out[m] = lambda n, e, evs=evs: [d for d, f in evs if f(n, e)]
    return out


def _letters(nodes, env, x, by_rank):
    """Each node's letter in preorder: the one of its rank whose formula
    holds with x there.  Raises DeterminismViolation where not one does."""
    env, out = dict(env), []
    for i, kids in enumerate(nodes.kids):
        env[x] = i
        holding = by_rank[len(kids)](nodes, env)
        if len(holding) != 1:
            path = nodes.paths[i]
            raise DeterminismViolation(
                f"family is not deterministic at node {path}: {holding}",
                node=path,
                satisfied=holding,
            )
        out.append(holding[0])
    return out


def characteristic_tree(t, lam, x, delta: RankedAlphabet, formulas) -> RankedTree:
    """Relabel each NV node by the unique letter whose formula holds there.

    Raises DeterminismViolation unless exactly one letter of the node's
    rank applies.
    """
    nodes = _Nodes(t)
    env = {z: nodes.paths.index(p) for z, p in lam.items()}
    letters = _letters(nodes, env, x, _by_rank(delta, formulas))
    built = [None] * len(letters)
    for i in reversed(range(len(letters))):
        kids = (built[c] if c > 0 else RankedTree(-c) for c in nodes.kids[i])
        built[i] = RankedTree(letters[i], tuple(kids))
    return built[0] if built else t


def check_deterministic(delta: RankedAlphabet, x, family, sigma: RankedAlphabet,
                        k: int, max_nv: int):
    """Test determinism of a family on every tree with <= max_nv NV nodes.

    Checks, for every tree, interpretation of the other free variables and
    placement of x, that exactly one letter of the node's rank applies.
    Returns (True, None) or (False, witness) with the first violating
    (tree, interpretation, node, holding letters in name order).
    """
    formulas = dict(family)
    others = sorted(set().union(*(free_vars(f) for f in formulas.values())) - {x})
    for t in enumerate_trees(sigma, k, max_nv):
        for assign in itertools.product(nv_nodes(t), repeat=len(others)):
            lam = dict(zip(others, assign))
            try:
                characteristic_tree(t, lam, x, delta, formulas)
            except DeterminismViolation as exc:
                return False, (t, lam, exc.node, sorted(exc.satisfied))
    return True, None


# ---------------------------------------------------------------------------
# Z-structures


def ext_symbol(name: str, zs) -> str:
    zs = sorted(zs)
    return name if not zs else name + "@" + "@".join(zs)


def split_symbol(ename: str):
    parts = ename.split("@")
    return parts[0], frozenset(parts[1:])


def extend_alphabet(sigma: RankedAlphabet, zs) -> RankedAlphabet:
    """The alphabet whose rank-m letters are (sigma_m letter, subset of zs)."""
    zs = sorted(zs)
    syms = []
    for name, m in sigma.symbols:
        for r in range(len(zs) + 1):
            for combo in itertools.combinations(zs, r):
                syms.append((ext_symbol(name, combo), m))
    return RankedAlphabet(tuple(syms))


def mk_structure(t: RankedTree, lam: dict) -> RankedTree:
    """Encode (t, lam) as a tree whose labels carry the variables sitting there.

    Only those nodes are rebuilt: a sentence's structure is t itself.
    """
    at_node = {}
    for z, path in lam.items():
        at_node.setdefault(path, []).append(z)
    out = t
    for path, zs in at_node.items():
        s = subtree_at(out, path)
        if s.is_var():
            raise ValueError(f"{zs[0]} must sit at an NV node")
        out = replace_at(out, path, RankedTree(ext_symbol(s.label, zs), s.children))
    return out


def interpretations(sigma, zs, k, max_nv, shared=None):
    """(tree, node table, env) for every structure with the tree's NV count
    bounded, env mapping the sorted zs to node indices; a tree's share a
    table.  ``shared`` is ``forest(sigma, k, max_nv)`` if already built."""
    zs = sorted(zs)
    dag, levels = shared or forest(sigma, k, max_nv)
    for s in itertools.chain.from_iterable(levels):
        nodes = _Nodes(dag[s][2], s)
        for assign in itertools.product(range(len(nodes.labels)), repeat=len(zs)):
            yield nodes.tree, nodes, dict(zip(zs, assign))


def structures(sigma, zs, k, max_nv):
    """All (tree, lam, structure) triples, in the order of ``interpretations``."""
    for t, nodes, env in interpretations(sigma, zs, k, max_nv):
        lam = {z: nodes.paths[i] for z, i in env.items()}
        yield t, lam, mk_structure(t, lam)


# ---------------------------------------------------------------------------
# substitution and rewritings


def _map_subformulas(phi, fn):
    """phi with ``fn`` applied to each immediate subformula; atoms are kept."""
    if isinstance(phi, Not):
        return Not(fn(phi.sub))
    if isinstance(phi, Or):
        return Or(fn(phi.left), fn(phi.right))
    if isinstance(phi, And):
        return And(fn(phi.left), fn(phi.right))
    if isinstance(phi, QK):
        return replace(phi, family=tuple((d, fn(f)) for d, f in phi.family))
    if isinstance(phi, ATOMS) or isinstance(phi, (TrueF, FalseF)):
        return phi
    raise TypeError(f"not a formula: {phi!r}")


def substitute_var(chi, q: str, p: str):
    """chi[q/p]: substitute q for the free occurrences of p, avoiding capture."""
    if p == q:
        return chi
    if isinstance(chi, ATOMS):
        return replace(chi, **{f: q for f in ("x", "y") if getattr(chi, f, None) == p})
    if isinstance(chi, QK):
        if chi.var == p:  # p is bound here; no free occurrences inside
            return chi
        if chi.var == q:  # rename the binder first to avoid capture
            # the new name is neither q nor p, so it is neither captured
            # nor substituted
            chi = _rename_binder(chi, {p, q})
    return _map_subformulas(chi, lambda f: substitute_var(f, q, p))


def _rename_binder(chi: QK, taken):
    """chi with its binder renamed to the first base$n not free in chi.

    The new name also avoids ``taken``; base is the binder's written name.
    """
    old, base = chi.var, chi.var.split("$")[0]
    taken = free_vars(chi) | set(taken)
    names = (f"{base}${n}" for n in itertools.count(1))
    z = next(v for v in names if v not in taken)
    return replace(_map_subformulas(chi, lambda f: substitute_var(f, z, old)), var=z)


def rank_test(z: str, n: int, sigma: RankedAlphabet):
    """The formula 'z sits at a rank-n node': a disjunction of letter atoms."""
    return _letter_disjunction(sigma.by_arity(n), z)


def _letter_disjunction(letters, z):
    """P_a1(z) or ... or P_ar(z), nested to the left; FALSE for no letters."""
    out = FALSE
    for i, name in enumerate(letters):
        out = PSym(name, z) if i == 0 else Or(out, PSym(name, z))
    return out


def tilde_substitute(chi, x: str, formulas: dict, delta: RankedAlphabet,
                     sigma: RankedAlphabet):
    """Rewrite a formula over Delta into one over Sigma through a family.

    A letter atom P_delta(z) becomes formulas[delta] with z substituted for
    x, guarded by 'z has delta's rank'.  The guard is needed for the
    substitution to commute with characteristic-tree relabeling: a family
    formula may well hold at a node whose rank differs from its letter's,
    but the relabeled node never carries a wrong-rank letter.  Requires
    that neither x nor any free variable of the family formulas is free in
    chi; a binder of chi so named is renamed.
    """
    banned = {x}
    for f in formulas.values():
        banned |= free_vars(f)
    clash = free_vars(chi) & banned
    if clash:
        raise ValueError(f"variable capture: {sorted(clash)} free in the host formula")
    return _tilde(chi, x, formulas, delta.arity, sigma, banned)


def _tilde(chi, x, formulas, arity, sigma, banned):
    if isinstance(chi, PSym):
        if chi.sym not in formulas:
            raise ValueError(f"letter {chi.sym} not covered by the family")
        body = substitute_var(formulas[chi.sym], chi.x, x)
        return And(rank_test(chi.x, arity[chi.sym], sigma), body)
    if isinstance(chi, QK) and chi.var in banned:
        # a host binder would capture the family's free variables
        chi = _rename_binder(chi, banned)
    return _map_subformulas(chi, lambda f: _tilde(f, x, formulas, arity, sigma, banned))


def inverse_literal_image(phi, h: dict, source: RankedAlphabet, target: RankedAlphabet):
    """phi' over ``source`` with (t, lam) |= phi' iff (h(t), lam) |= phi.

    ``h`` maps source letters to target letters, rank-preserving.  Letter
    atoms become disjunctions over preimages; everything else only sees
    the tree's shape and is kept.
    """
    s_ar, t_ar = source.arity, target.arity
    for a, b in h.items():
        if s_ar[a] != t_ar[b]:
            raise ValueError(f"h does not preserve rank at {a}")

    def rec(f):
        if isinstance(f, PSym):
            return _letter_disjunction([a for a in source.names() if h[a] == f.sym], f.x)
        return _map_subformulas(f, rec)

    return rec(phi)


def apply_literal_morphism(t: RankedTree, h: dict) -> RankedTree:
    return fold(t, RankedTree, lambda name, kids: RankedTree(h[name], kids))


# ---------------------------------------------------------------------------
# sugar


def boolean_family(phi, sigma: RankedAlphabet):
    """The family (phi at 1-letters, not phi at 0-letters) over Sigma's arities."""
    fam = []
    for n in sigma.arities():
        fam.append((f"1_{n}", phi))
        fam.append((f"0_{n}", Not(phi)))
    return tuple(fam)


def exists_formula(x, phi, sigma: RankedAlphabet, k: int) -> QK:
    delta = boolean_alphabet(sigma.arities())
    return QK("exists", k_exists(delta, k), x, boolean_family(phi, sigma))


def desugar_mod(p, r, x, phi, sigma: RankedAlphabet, k: int) -> QK:
    delta = boolean_alphabet(sigma.arities())
    return QK(f"mod[{p},{r}]", k_mod(delta, k, p, r), x, boolean_family(phi, sigma))


# ---------------------------------------------------------------------------
# parser


_VARIABLE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset(
    {"exists", "mod", "true", "false", "root", "max", "left", "right", "P", "Q"}
)


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            toks.append("->")
            i += 2
            continue
        if ch in "()[]{},;:.<&|!":
            toks.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and (text[j].isalnum() or text[j] in "_@$"):
            j += 1
        if j == i:
            raise ParseError(f"unexpected character {ch!r} at {i}")
        toks.append(text[i:j])
        i = j
    return toks


class _FormulaParser:
    def __init__(self, tokens, sigma, k, langs):
        self.toks = tokens
        self.pos = 0
        self.sigma = sigma
        self.k = k
        self.langs = langs or {}
        self.binders = []  # written names of the enclosing binders, outermost first

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")
        return got

    def parse(self):
        phi = self.quantified()
        if self.pos != len(self.toks):
            raise ParseError(f"trailing tokens from {self.toks[self.pos]!r}")
        return phi

    def quantified(self):
        phi = self._try_quantifier()
        return phi if phi is not None else self.implies()

    def _try_quantifier(self):
        tok = self.peek()
        if tok == "exists":
            self.next()
            x = self.bind()
            self.expect(".")
            body = self.quantified()
            self.binders.pop()
            return exists_formula(x, body, self.sigma, self.k)
        if tok == "mod":
            self.next()
            self.expect("[")
            p = self.integer()
            self.expect(",")
            r = self.integer()
            self.expect("]")
            x = self.bind()
            self.expect(".")
            body = self.quantified()
            self.binders.pop()
            if not (p >= 2 and 0 <= r < p):
                raise ParseError(f"bad modulus parameters ({p},{r})")
            return desugar_mod(p, r, x, body, self.sigma, self.k)
        if tok == "Q":
            self.next()
            self.expect("[")
            name = self.next()
            self.expect("]")
            x = self.bind()
            self.expect("{")
            fam = []
            while True:
                d = self.next()
                self.expect(":")
                fam.append((d, self.quantified()))
                sep = self.next()
                if sep == "}":
                    break
                if sep != ";":
                    raise ParseError(f"expected ';' or '}}', got {sep!r}")
                if self.peek() == "}":
                    self.next()
                    break
            self.binders.pop()
            lang = self.langs.get(name)
            if lang is None:
                raise ParseError(f"unknown language {name!r}")
            return self._mk_qk(name, lang, x, fam)
        return None

    def _mk_qk(self, name, lang, x, fam):
        if lang.rank != self.k:
            raise ParseError(
                f"language {name} has rank {lang.rank}, formula has rank {self.k}"
            )
        delta_names = set(lang.alphabet.names())
        seen = set()
        for d, _ in fam:
            if d not in delta_names:
                raise ParseError(f"{d!r} is not a letter of {name}'s alphabet")
            if d in seen:
                raise ParseError(f"duplicate family entry for {d!r}")
            seen.add(d)
        missing = delta_names - seen
        if missing:
            raise ParseError(f"family misses letters {sorted(missing)}")
        sig_arities = set(self.sigma.arities())
        delta_arities = set(lang.alphabet.arities())
        if not sig_arities <= delta_arities:
            raise ParseError(
                f"{name}'s alphabet has no letters of arity "
                f"{sorted(sig_arities - delta_arities)}"
            )
        return QK(name, lang, x, tuple(fam))

    def implies(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.implies()
            return Or(Not(left), right)
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek() == "|":
            self.next()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self):
        if self.peek() == "!":
            self.next()
            return Not(self.unary())
        phi = self._try_quantifier()  # quantifier body extends maximally right
        return phi if phi is not None else self.atom()

    def integer(self):
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok!r}")
        return int(tok)

    def variable(self):
        """A written variable name: [A-Za-z][A-Za-z0-9_]*, not a keyword."""
        tok = self.next()
        if not _VARIABLE.fullmatch(tok) or tok in _KEYWORDS:
            raise ParseError(f"bad variable name {tok!r}")
        return tok

    def bind(self):
        """Open the scope of a binder; a binder written x at depth d is x$d."""
        x = self.variable()
        self.binders.append(x)
        return f"{x}${len(self.binders)}"

    def reference(self):
        """A variable occurrence: the innermost binder so written, else free."""
        x = self.variable()
        for d in range(len(self.binders), 0, -1):
            if self.binders[d - 1] == x:
                return f"{x}${d}"
        return x

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            phi = self.quantified()
            self.expect(")")
            return phi
        if tok == "true":
            self.next()
            return TRUE
        if tok == "false":
            self.next()
            return FALSE
        if tok == "P":
            self.next()
            self.expect("[")
            sym = self.next()
            self.expect("]")
            if sym not in self.sigma.arity:
                raise ParseError(f"unknown symbol {sym!r}")
            self.expect("(")
            x = self.reference()
            self.expect(")")
            return PSym(sym, x)
        if tok == "root":
            self.next()
            self.expect("(")
            x = self.reference()
            self.expect(")")
            return Root(x)
        if tok == "max":
            self.next()
            self.expect("[")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect("]")
            self.expect("(")
            x = self.reference()
            self.expect(")")
            if not 1 <= i <= self.sigma.max_arity:
                raise ParseError(f"successor index {i} out of range")
            if not 1 <= j <= self.k:
                raise ParseError(f"variable index {j} outside rank {self.k}")
            return Max(i, j, x)
        if tok in ("left", "right"):
            self.next()
            self.expect("[")
            j = self.integer()
            self.expect("]")
            self.expect("(")
            x = self.reference()
            self.expect(")")
            return self._leftright(tok, j, x)
        if tok is not None and tok.startswith("succ_"):
            self.next()
            i = tok[len("succ_"):]
            if not i.isdigit():
                raise ParseError(f"bad successor atom {tok!r}")
            i = int(i)
            if not 1 <= i <= self.sigma.max_arity:
                raise ParseError(f"successor index {i} out of range")
            self.expect("(")
            x = self.reference()
            self.expect(",")
            y = self.reference()
            self.expect(")")
            return Succ(i, x, y)
        # x < y
        x = self.reference()
        self.expect("<")
        y = self.reference()
        return Less(x, y)

    def _leftright(self, kind, j, x):
        k = self.k
        atom, none = (LeftJ, 0) if kind == "left" else (RightJ, k + 1)
        if j == none:
            # left[0] / right[k+1]: x is left (right) of no variable
            if k < 1:
                raise ParseError(f"{kind}[{none}] needs rank >= 1")
            out = Not(atom(1, x))
            for jj in range(2, k + 1):
                out = And(out, Not(atom(jj, x)))
            return out
        if not 1 <= j <= k:
            raise ParseError(f"{kind} index {j} outside rank {k}")
        return atom(j, x)


def parse_formula(text: str, sigma: RankedAlphabet, k: int, langs=None):
    """Parse a formula of rank k over sigma.

    A binder written x at nesting depth d (outermost 1) is named x$d, and
    each occurrence of x refers to the innermost enclosing binder written
    x, so equal texts parse to equal formulas.  ``langs`` maps quantifier
    language names to rank-k automata.
    """
    parser = _FormulaParser(_tokenize(text), sigma, k, langs)
    return parser.parse()
