"""Tree helpers that only the tests read: NV-node addressing, the
factorisation t = r . (k1 units + s + k2 units) at a node, small
builders and counters used as oracles, and the former hand-written
``minimize`` loop as the oracle of ``automata.refine``."""

import itertools

from preclones.automata import TreeAutomaton, reachable_states
from preclones.trees import (
    RankedTree,
    compose,
    fold,
    rank,
    replace_at,
    shift_vars,
    subtree_at,
    unit_tuple,
)


def symbol_tree(name: str, arity: int) -> RankedTree:
    """The letter as a tree: root labelled name with children v_1..v_arity."""
    return RankedTree(name, tuple(RankedTree(j) for j in range(1, arity + 1)))


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
    return fold(t, lambda j: RankedTree(j + delta if j > keep else j), RankedTree)


def recompose(r, k1, s, k2):
    """Inverse of factor_at."""
    return compose(r, unit_tuple(k1) + (s,) + unit_tuple(k2))


def count_nv(t: RankedTree) -> int:
    return fold(t, lambda _: 0, lambda _, counts: 1 + sum(counts))


def reference_minimize(a: TreeAutomaton, finals_list=None):
    """``automata.minimize`` as one loop: every round recomputes each
    reachable state's full signature, its block and the blocks of its
    targets at each position of each letter over every tuple of the
    other states."""
    sets = [a.finals] + [frozenset(s) for s in (finals_list or [])]
    reach = sorted(reachable_states(a))
    block = {q: tuple(q in s for s in sets) for q in reach}
    while True:
        sigs = {}
        for q in reach:
            sig = [block[q]]
            for name, m in a.alphabet.symbols:
                table = a.transitions[name]
                for pos in range(m):
                    for others in itertools.product(reach, repeat=m - 1):
                        sig.append(block[table[others[:pos] + (q,) + others[pos:]]])
            sigs[q] = tuple(sig)
        new_ids = {}
        new_block = {q: new_ids.setdefault(sigs[q], len(new_ids)) for q in reach}
        done = len(new_ids) == len(set(block.values()))
        block = new_block
        if done:
            break
    n_blocks = len(set(block.values()))
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    transitions = {
        name: {combo: block[a.transitions[name][tuple(rep[c] for c in combo)]]
               for combo in itertools.product(range(n_blocks), repeat=m)}
        for name, m in a.alphabet.symbols
    }
    mapped = [frozenset(block[q] for q in s if q in block) for s in sets]
    out = TreeAutomaton(a.alphabet, a.rank, n_blocks, tuple(block[q] for q in a.var_state),
                        transitions, mapped[0])
    return out if finals_list is None else (out, mapped[1:])
