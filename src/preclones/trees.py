"""Ranked alphabets and the free preclone of trees with variable leaves.

A tree of rank n has ordered variable leaves v_1 .. v_n appearing exactly
once each, left to right, on its frontier.  Composition substitutes trees
at variable leaves and renumbers the remaining variables consecutively.
Tuples of trees are plain Python tuples; the empty tuple is the 0-width
tuple.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .errors import ParseError, natural, read_lines


@dataclass(frozen=True)
class RankedAlphabet:
    """A finite set of symbols, each with a fixed arity."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        for name, ar in self.symbols:
            if ar < 0:
                raise ValueError(f"negative arity for {name}")

    @property
    def arity(self):
        return dict(self.symbols)

    @property
    def max_arity(self):
        return max(ar for _, ar in self.symbols)

    def names(self):
        return [name for name, _ in self.symbols]

    def by_arity(self, n):
        return [name for name, ar in self.symbols if ar == n]

    def arities(self):
        return sorted({ar for _, ar in self.symbols})


def alphabet(*symbols):
    """Build a RankedAlphabet from (name, arity) pairs or 'name/arity' strings."""
    out = []
    for s in symbols:
        if isinstance(s, str):
            name, _, ar = s.partition("/")
            out.append((name, int(ar)))
        else:
            out.append((s[0], int(s[1])))
    return RankedAlphabet(tuple(out))


def load_alphabet(path):
    """Read an alphabet file: one ``name/arity`` per line."""
    syms = {}

    def line(lineno, word, rest):
        name, slash, ar = word.partition("/")
        if rest or not name or not slash:
            raise ParseError("expected '<name>/<arity>'")
        if name in syms:
            raise ParseError(f"a second line for symbol {name!r}")
        syms[name] = natural("arity", ar)

    with open(path) as fh:
        read_lines(fh.read(), None, line)
    return RankedAlphabet(tuple(syms.items()))


@dataclass(frozen=True)
class RankedTree:
    """A node of a ranked tree.

    ``label`` is a symbol name (str) or a 1-based variable index (int);
    variable nodes are leaves.  Trees are immutable with structural
    equality.
    """

    label: str | int
    children: tuple[RankedTree, ...] = ()

    def __post_init__(self):
        if isinstance(self.label, int) and self.children:
            raise ValueError("variable node cannot have children")

    def is_var(self):
        return isinstance(self.label, int)


UNIT = RankedTree(1)  # the tree consisting of the single leaf v_1


def var(j):
    if j < 1:
        raise ValueError("variable indices are 1-based")
    return RankedTree(j)


def node(label, *children):
    return RankedTree(label, tuple(children))


def fold(t: RankedTree, leaf, node):
    """The value of t with each leaf v_j valued leaf(j) and each NV node
    node(label, (child values)), bottom-up, children left to right; so
    ``fold(t, RankedTree, RankedTree) == t``.

    Trees with variable leaves form the free preclone, so every value of
    a tree (rank, text, an automaton run, a morphism into a preclone) is
    this extension of a map on letters.
    """
    if isinstance(t.label, int):
        return leaf(t.label)
    return node(t.label, tuple([fold(c, leaf, node) for c in t.children]))


def rank(t: RankedTree) -> int:
    """Number of variable leaves of t."""
    return fold(t, lambda _: 1, lambda _, ranks: sum(ranks))


def total_rank(ts) -> int:
    return sum(rank(t) for t in ts)


def oplus(trees) -> tuple[RankedTree, ...]:
    """Form a tuple of trees (width = len, total rank = sum of ranks)."""
    return tuple(trees)


def unit_tuple(n) -> tuple[RankedTree, ...]:
    """The tuple of n copies of the unit tree."""
    return (UNIT,) * n


def variables_in_order(t: RankedTree):
    """Variable indices on the frontier, left to right."""
    return fold(t, lambda j: [j], lambda _, kids: [j for vs in kids for j in vs])


def validate(t: RankedTree, alph: RankedAlphabet, expect_rank=None):
    """Check arities and the v_1..v_n frontier invariant; return rank."""
    arity = alph.arity

    def walk(s):
        if s.is_var():
            return
        if s.label not in arity:
            raise ParseError(f"unknown symbol {s.label!r}")
        if len(s.children) != arity[s.label]:
            raise ParseError(
                f"symbol {s.label} has arity {arity[s.label]}, got {len(s.children)} children"
            )
        for c in s.children:
            walk(c)

    walk(t)
    vs = variables_in_order(t)
    if vs != list(range(1, len(vs) + 1)):
        raise ParseError(f"frontier variables {vs} are not v1..v{len(vs)} in order")
    if expect_rank is not None and len(vs) != expect_rank:
        raise ParseError(f"tree has rank {len(vs)}, expected {expect_rank}")
    return len(vs)


def shift_vars(t: RankedTree, offset: int) -> RankedTree:
    if offset == 0:
        return t
    return fold(t, lambda j: RankedTree(j + offset), RankedTree)


def compose(f: RankedTree, gs) -> RankedTree:
    """Substitute gs[i-1] for the leaf v_i of f, renumbering variables.

    Width of gs must equal rank(f).  The i-th substituted tree has its
    variables shifted by the total rank of the preceding components, which
    keeps the frontier invariant because f's variables appear in order.
    """
    gs = tuple(gs)
    if rank(f) != len(gs):
        raise ValueError(f"compose width mismatch: rank {rank(f)} vs {len(gs)} trees")
    offsets = list(itertools.accumulate(map(rank, gs), initial=0))
    return fold(f, lambda j: shift_vars(gs[j - 1], offsets[j - 1]), RankedTree)


# ---------------------------------------------------------------------------
# node addressing


def subtree_at(t: RankedTree, path) -> RankedTree:
    s = t
    for i in path:
        s = s.children[i]
    return s


def replace_at(t: RankedTree, path, repl: RankedTree) -> RankedTree:
    if not path:
        return repl
    i = path[0]
    kids = list(t.children)
    kids[i] = replace_at(kids[i], path[1:], repl)
    return RankedTree(t.label, tuple(kids))


# ---------------------------------------------------------------------------
# text form


def tree_to_text(t: RankedTree) -> str:
    return fold(t, "v{}".format,
                lambda label, texts: f"{label}({','.join(texts)})" if texts else str(label))


_TREE_TOKEN = re.compile(r"[(),]|[^\s(),]+")


def parse_tree(text: str, alph: RankedAlphabet, expect_rank=None) -> RankedTree:
    """Parse the term grammar: symbol | symbol(tree,...) | v<digits>."""
    # (token, start) in text order; None marks the end of the text
    toks = [(m[0], m.start()) for m in _TREE_TOKEN.finditer(text)] + [(None, len(text))]
    pos = 0

    def token():
        nonlocal pos
        tok, start = toks[pos]
        if tok is None:
            raise ParseError("unexpected end of tree text")
        pos += 1
        return tok, start

    def tree():
        tok, start = token()
        if tok in ("(", ")", ","):
            raise ParseError(f"unexpected {tok!r} at position {start + 1}")
        if len(tok) > 1 and tok[0] == "v" and tok[1:].isdecimal():
            return RankedTree(int(tok[1:]))
        children, sep = [], token()[0] if toks[pos][0] == "(" else ")"
        while sep != ")":
            children.append(tree())
            sep = token()[0]
            if sep not in (",", ")"):
                raise ParseError(f"expected ',' or ')', got {sep!r}")
        return RankedTree(tok, tuple(children))

    t = tree()
    if toks[pos][0] is not None:
        raise ParseError(f"trailing input at position {toks[pos][1]}")
    validate(t, alph, expect_rank)
    return t


# ---------------------------------------------------------------------------
# enumeration


@functools.cache
def compositions(total, parts):
    """All tuples of `parts` non-negative ints summing to `total`.

    Lexicographic order.  Tuples summing to at most `total` are
    ``c[:-1] for c in compositions(total, parts + 1)``: the last part is
    the slack, so that order is lexicographic too.  Cached: the axiom walk
    asks for the same few small shapes once per composition.
    """
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in compositions(total - first, parts - 1)
    )


def _trees_exact(alph, k, nv, off, memo, dag):
    """Serials of the trees of rank k with exactly nv NV nodes and variables
    v_{off+1}.., each appended to ``dag`` once, after its children."""
    off = off if k else 0  # a rank-0 tree is the same at every offset
    key = (k, nv, off)
    if key in memo:
        return memo[key]
    out = []
    if nv == 0 and k == 1:
        out.append(len(dag))
        dag.append((off + 1, (), f"v{off + 1}"))
    for name, m in alph.symbols if nv else ():
        if nv - 1 == 0 and m > 0:
            continue
        for ranks in compositions(k, m):
            # child i's variables follow those of the children before it
            offsets = tuple(itertools.accumulate(ranks, initial=off))
            for nvs in compositions(nv - 1, m):
                child_sets = [_trees_exact(alph, r, n, o, memo, dag)
                              for r, n, o in zip(ranks, nvs, offsets)]
                for kids in itertools.product(*child_sets):
                    text = f"{name}({','.join(dag[c][2] for c in kids)})" if kids else name
                    out.append(len(dag))
                    dag.append((name, kids, text))
    memo[key] = out
    return out


def forest(alph: RankedAlphabet, k: int, max_nv: int):
    """The trees of ``enumerate_trees``, each subtree entered once: (dag, levels).

    ``dag[s]`` is the entry (label, kids, text) of serial s, kids its
    children's serials (each before its parent; v_j is (j, (), "vj")).
    ``levels[nv]`` lists the serials of the trees with nv NV nodes, in order.
    """
    if k < 0:
        raise ValueError(f"rank must be >= 0, got {k}")
    if max_nv < 0:
        raise ValueError(f"max_nv must be >= 0, got {max_nv}")
    memo, dag = {}, []
    levels = [_trees_exact(alph, k, nv, 0, memo, dag) for nv in range(max_nv + 1)]
    return dag, [sorted(level, key=lambda s: dag[s][2]) for level in levels]


def enumerate_trees(alph: RankedAlphabet, k: int, max_nv: int):
    """Yield every tree of rank k with at most max_nv NV nodes, exactly once.

    Order: by NV count, then lexicographically on the term text, so runs
    are reproducible.  Raises ValueError for a negative k or max_nv.
    """
    dag, levels = forest(alph, k, max_nv)
    built = []  # the tree of each entry, from its children's
    for label, kids, _ in dag:
        built.append(RankedTree(label, tuple(map(built.__getitem__, kids))))
    yield from (built[s] for level in levels for s in level)
