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
from dataclasses import dataclass

from .errors import ParseError


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
    """Read an alphabet file: one name/arity per line, blank lines ignored."""
    syms = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, ar = line.partition("/")
            if not ar:
                raise ParseError(f"bad alphabet line: {line!r}")
            syms.append((name, int(ar)))
    return RankedAlphabet(tuple(syms))


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


def rank(t: RankedTree) -> int:
    """Number of variable leaves of t."""
    if t.is_var():
        return 1
    return sum(rank(c) for c in t.children)


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
    if t.is_var():
        return [t.label]
    out = []
    for c in t.children:
        out.extend(variables_in_order(c))
    return out


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
    if t.is_var():
        return RankedTree(t.label + offset)
    return RankedTree(t.label, tuple(shift_vars(c, offset) for c in t.children))


def compose(f: RankedTree, gs) -> RankedTree:
    """Substitute gs[i-1] for the leaf v_i of f, renumbering variables.

    Width of gs must equal rank(f).  The i-th substituted tree has its
    variables shifted by the total rank of the preceding components, which
    keeps the frontier invariant because f's variables appear in order.
    """
    gs = tuple(gs)
    if rank(f) != len(gs):
        raise ValueError(f"compose width mismatch: rank {rank(f)} vs {len(gs)} trees")
    offsets = [0]
    for g in gs:
        offsets.append(offsets[-1] + rank(g))

    def subst(s):
        if s.is_var():
            return shift_vars(gs[s.label - 1], offsets[s.label - 1])
        return RankedTree(s.label, tuple(subst(c) for c in s.children))

    return subst(f)


def symbol_tree(name: str, arity: int) -> RankedTree:
    """The letter as a tree: root labelled name with children v_1..v_arity."""
    return RankedTree(name, tuple(RankedTree(j) for j in range(1, arity + 1)))


# ---------------------------------------------------------------------------
# node addressing


def nv_nodes(t: RankedTree):
    """Paths of symbol-labelled nodes, in preorder."""
    out = []

    def walk(s, path):
        if s.is_var():
            return
        out.append(path)
        for i, c in enumerate(s.children):
            walk(c, path + (i,))

    walk(t, ())
    return out


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


def factor_at(t: RankedTree, path):
    """Split t at an NV node: t = r . (k1 units + s + k2 units).

    Returns (r, k1, s, k2) with s the subtree at ``path`` renumbered from
    v_1 and r the tree obtained by replacing it with a fresh hole variable.
    """
    sub = subtree_at(t, path)
    if sub.is_var():
        raise ValueError("factor_at requires an NV node")
    k = rank(t)
    # variables strictly left of the subtree = lowest variable inside - 1,
    # computed by counting variables before the path in frontier order.
    k1 = vars_left_of(t, path)
    r2 = rank(sub)
    k2 = k - k1 - r2
    s = shift_vars(sub, -k1)
    # variables after the subtree slide to k1+2.. before the hole goes in,
    # otherwise a rank-0 subtree would leave the hole index colliding
    shifted = _renumber_after(t, k1 + r2, -(r2 - 1))
    r = replace_at(shifted, path, RankedTree(k1 + 1))
    return r, k1, s, k2


def vars_left_of(t, path):
    """Number of variable leaves strictly left of the subtree at ``path``."""
    count = 0
    s = t
    for i in path:
        for c in s.children[:i]:
            count += rank(c)
        s = s.children[i]
    return count


def _renumber_after(t, keep, delta):
    if t.is_var():
        if t.label > keep:
            return RankedTree(t.label + delta)
        return t
    return RankedTree(t.label, tuple(_renumber_after(c, keep, delta) for c in t.children))


def recompose(r, k1, s, k2):
    """Inverse of factor_at."""
    return compose(r, unit_tuple(k1) + (s,) + unit_tuple(k2))


# ---------------------------------------------------------------------------
# text form


def tree_to_text(t: RankedTree) -> str:
    if t.is_var():
        return f"v{t.label}"
    if not t.children:
        return str(t.label)
    return f"{t.label}({','.join(tree_to_text(c) for c in t.children)})"


class _TreeParser:
    DELIMS = set("(),")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def token(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of tree text")
        ch = self.text[self.pos]
        if ch in self.DELIMS:
            self.pos += 1
            return ch
        start = self.pos
        while (
            self.pos < len(self.text)
            and not self.text[self.pos].isspace()
            and self.text[self.pos] not in self.DELIMS
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def peek(self):
        save = self.pos
        try:
            tok = self.token()
        except ParseError:
            tok = None
        self.pos = save
        return tok

    def parse(self):
        tok = self.token()
        if tok in self.DELIMS:
            raise ParseError(f"unexpected {tok!r} at position {self.pos}")
        if len(tok) > 1 and tok[0] == "v" and tok[1:].isdigit():
            return RankedTree(int(tok[1:]))
        children = []
        if self.peek() == "(":
            self.token()
            while True:
                children.append(self.parse())
                sep = self.token()
                if sep == ")":
                    break
                if sep != ",":
                    raise ParseError(f"expected ',' or ')', got {sep!r}")
        return RankedTree(tok, tuple(children))


def parse_tree(text: str, alph: RankedAlphabet, expect_rank=None) -> RankedTree:
    """Parse the term grammar: symbol | symbol(tree,...) | v<digits>."""
    p = _TreeParser(text)
    t = p.parse()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"trailing input at position {p.pos}")
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


def _trees_exact(alph, k, nv, memo):
    """All trees of rank k with exactly nv NV nodes (unsorted)."""
    key = (k, nv)
    if key in memo:
        return memo[key]
    out = []
    if nv == 0:
        if k == 1:
            out.append(UNIT)
    else:
        for name, m in alph.symbols:
            if nv - 1 == 0 and m > 0:
                continue
            for ranks in compositions(k, m):
                # child i's variables follow those of the children before it
                offsets = tuple(itertools.accumulate(ranks, initial=0))
                for nvs in compositions(nv - 1, m):
                    child_sets = [
                        [shift_vars(c, off) for c in _trees_exact(alph, r, n, memo)]
                        for r, n, off in zip(ranks, nvs, offsets)
                    ]
                    out.extend(RankedTree(name, kids) for kids in itertools.product(*child_sets))
    memo[key] = out
    return out


def enumerate_trees(alph: RankedAlphabet, k: int, max_nv: int):
    """Yield every tree of rank k with at most max_nv NV nodes, exactly once.

    Order: by NV count, then lexicographically on the term text, so runs
    are reproducible.  Raises ValueError for a negative max_nv.
    """
    if max_nv < 0:
        raise ValueError(f"max_nv must be >= 0, got {max_nv}")
    memo = {}
    for nv in range(max_nv + 1):
        yield from sorted(_trees_exact(alph, k, nv, memo), key=tree_to_text)


def count_nv(t: RankedTree) -> int:
    if t.is_var():
        return 0
    return 1 + sum(count_nv(c) for c in t.children)
