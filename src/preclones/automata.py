"""Deterministic complete bottom-up tree automata for rank-k languages.

A rank-k language is represented by a classical DFTA over the alphabet
extended with k variable-leaf symbols: ``var_state[j]`` is the state a
v_{j+1} leaf evaluates to.  Membership is meaningful for valid rank-k
trees only.

``explore`` is the one reachability construction: every automaton built
bottom-up (the Boolean products, ``product``, the compiler's atom,
image and carrier automata) is the least state set closed under a step
function, found by semi-naive evaluation, and ``build`` numbers it.
``preclone.close_for_evaluation`` closes every generated preclone the
same way, with the generators as letters and elements as states.
Callers that evaluate only trees of rank <= k grade states by rank and
let ``explore`` cap the argument tuples: those subtrees have rank <= k.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .errors import ParseError
from .trees import (
    RankedAlphabet,
    RankedTree,
    compositions,
    enumerate_trees,
    fold,
    rank,
    total_rank,
    unit_tuple,
    compose,
)


# eq=False: automata compare by identity (they hold dict tables); use
# automaton_equal for structural comparison and language_equal for semantics.
@dataclass(frozen=True, eq=False)
class TreeAutomaton:
    alphabet: RankedAlphabet
    rank: int
    n_states: int
    var_state: tuple[int, ...]  # state of v_1 .. v_rank
    transitions: dict  # symbol -> dict[tuple[int,...] -> int], total
    finals: frozenset[int]

    def __post_init__(self):
        if len(self.var_state) != self.rank:
            raise ValueError("var_state must cover 1..rank")
        arity = self.alphabet.arity
        for name, table in self.transitions.items():
            m = arity[name]
            if len(table) != self.n_states**m:
                raise ValueError(f"transitions for {name} are not total")

    def run(self, t: RankedTree) -> int:
        """Bottom-up evaluation; v_j leaves map to var_state[j-1]."""

        def leaf(j):
            if not 1 <= j <= self.rank:
                raise ValueError(f"variable v{j} outside rank {self.rank}")
            return self.var_state[j - 1]

        def node(name, states):
            try:
                return self.transitions[name][states]
            except KeyError:
                raise ValueError(f"symbol {name!r} not in automaton alphabet") from None

        return fold(t, leaf, node)

    def accepts(self, t: RankedTree) -> bool:
        return self.run(t) in self.finals


def _check_compatible(a: TreeAutomaton, b: TreeAutomaton):
    if a.alphabet != b.alphabet or a.rank != b.rank:
        raise ValueError("automata have different alphabets or ranks")


def complement(a: TreeAutomaton) -> TreeAutomaton:
    return TreeAutomaton(
        a.alphabet,
        a.rank,
        a.n_states,
        a.var_state,
        a.transitions,
        frozenset(range(a.n_states)) - a.finals,
    )


def explore(alphabet: RankedAlphabet, seeds, step, grade=None, cap=0):
    """The least state set holding ``seeds`` and closed under ``step``.

    ``step(name, child_states)`` gives the state of a letter over a tuple
    of states.  A letter of arity m takes only tuples whose grades sum to
    at most ``cap``, one shape ``c[:-1] for c in compositions(cap, m + 1)``
    at a time over per-grade pools; a state graded above the cap is kept
    but is never an argument.  Ungraded (grade 0, cap 0), the one shape is
    all zeros.  Semi-naive: each round, position i of a shape takes a state
    new in the previous round, positions before i an older one and those
    after i any, so every in-cap tuple over the result is evaluated exactly
    once (in its newest state's round, at the first position holding one)
    and no other tuple is.  Returns (states, tables) with
    ``tables[name][child_states]`` every value computed.
    """
    grade = grade or (lambda q: 0)
    symbols = alphabet.symbols
    shapes = {m: [c[:-1] for c in compositions(cap, m + 1)] for _, m in symbols}
    tables = {name: {} for name, _ in symbols}
    states = set()
    new = [[] for _ in range(cap + 1)]

    def add(q):
        if q not in states:
            states.add(q)
            g = grade(q)
            if g <= cap:
                new[g].append(q)

    for q in seeds:
        add(q)
    for name, m in symbols:
        if m == 0:
            q = tables[name][()] = step(name, ())
            add(q)
    old = [[] for _ in range(cap + 1)]
    while any(new):
        fresh, every = new, [o + f for o, f in zip(old, new)]
        new = [[] for _ in range(cap + 1)]
        for name, m in symbols:
            for shape in shapes[m]:
                for i in range(m):
                    pools = ([old[g] for g in shape[:i]] + [fresh[shape[i]]]
                             + [every[g] for g in shape[i + 1:]])
                    for combo in itertools.product(*pools):
                        q = tables[name][combo] = step(name, combo)
                        add(q)
        old = every
    return states, tables


def build(alphabet: RankedAlphabet, k: int, var_states, step, finals,
          grade=None, cap=0):
    """The automaton on the states ``explore`` reaches from ``var_states``.

    States are numbered in sorted order; ``finals`` is a predicate on
    them.  One non-final sink, numbered last, completes the tables that a
    cap left partial.  Returns (automaton, the states in that order).
    """
    states, tables = explore(alphabet, var_states, step, grade, cap)
    ordered = sorted(states)
    idx = {q: i for i, q in enumerate(ordered)}
    n = len(ordered)
    transitions = {
        name: {tuple(idx[c] for c in combo): idx[q] for combo, q in table.items()}
        for name, table in tables.items()
    }
    if any(len(transitions[name]) < n**m for name, m in alphabet.symbols):
        n += 1
        for name, m in alphabet.symbols:
            for combo in itertools.product(range(n), repeat=m):
                transitions[name].setdefault(combo, n - 1)
    aut = TreeAutomaton(
        alphabet, k, n, tuple(idx[q] for q in var_states), transitions,
        frozenset(i for i, q in enumerate(ordered) if finals(q)),
    )
    return aut, ordered


def product(automata):
    """Reachable product of automata over one alphabet and rank.

    Returns (automaton without finals, the state tuples in state order).
    """
    first = automata[0]
    for a in automata[1:]:
        _check_compatible(first, a)
    var_states = [tuple(a.var_state[j] for a in automata) for j in range(first.rank)]

    def step(name, combo):
        return tuple(
            a.transitions[name][tuple(c[i] for c in combo)]
            for i, a in enumerate(automata)
        )

    return build(first.alphabet, first.rank, var_states, step, lambda q: False)


def _boolean(a: TreeAutomaton, b: TreeAutomaton, final_rule) -> TreeAutomaton:
    aut, pairs = product([a, b])
    finals = frozenset(
        i for i, (p, q) in enumerate(pairs) if final_rule(p in a.finals, q in b.finals)
    )
    return replace(aut, finals=finals)


def intersect(a, b):
    return _boolean(a, b, lambda x, y: x and y)


def union(a, b):
    return _boolean(a, b, lambda x, y: x or y)


def reachable_states(a: TreeAutomaton):
    """States realized by some tree over symbols and variable leaves.

    Variable states may be combined freely, which over-approximates
    reachability by valid trees; that is harmless for minimization.
    """
    states, _ = explore(a.alphabet, a.var_state, lambda name, qs: a.transitions[name][qs])
    return states


def minimize(a: TreeAutomaton, finals_list=None):
    """Drop unreachable states, then merge context-indistinguishable ones.

    ``finals_list`` is an optional list of extra state sets to preserve;
    the result automaton's finals (and the returned mapped sets) describe
    the same languages.  Returns the automaton if finals_list is None,
    otherwise (automaton, mapped_finals_list).
    """
    sets = [a.finals] + [frozenset(s) for s in (finals_list or [])]
    reach = sorted(reachable_states(a))
    idx = {q: i for i, q in enumerate(reach)}

    # initial partition: membership vector across all preserved sets
    def initial_block(q):
        return tuple(q in s for s in sets)

    block = {q: initial_block(q) for q in reach}
    while True:
        sigs = {}
        for q in reach:
            sig = [block[q]]
            for name, m in a.alphabet.symbols:
                table = a.transitions[name]
                for pos in range(m):
                    for others in itertools.product(reach, repeat=m - 1):
                        combo = others[:pos] + (q,) + others[pos:]
                        sig.append(block[table[combo]])
            sigs[q] = tuple(sig)
        new_ids = {}
        new_block = {}
        for q in reach:
            s = sigs[q]
            if s not in new_ids:
                new_ids[s] = len(new_ids)
            new_block[q] = new_ids[s]
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    n_blocks = len(set(block.values()))
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    transitions = {}
    for name, m in a.alphabet.symbols:
        table = a.transitions[name]
        new_table = {}
        for combo in itertools.product(range(n_blocks), repeat=m):
            qs = tuple(rep[c] for c in combo)
            new_table[combo] = block[table[qs]]
        transitions[name] = new_table
    var_state = tuple(block[q] for q in a.var_state)
    mapped = [frozenset(block[q] for q in s if q in block) for s in sets]
    out = TreeAutomaton(a.alphabet, a.rank, n_blocks, var_state, transitions, mapped[0])
    if finals_list is None:
        return out
    return out, mapped[1:]


def automaton_equal(a: TreeAutomaton, b: TreeAutomaton) -> bool:
    """Field-by-field structural equality (same state numbering)."""
    return (
        a.alphabet == b.alphabet
        and a.rank == b.rank
        and a.n_states == b.n_states
        and a.var_state == b.var_state
        and a.transitions == b.transitions
        and a.finals == b.finals
    )


def language_equal(a: TreeAutomaton, b: TreeAutomaton, max_nv: int) -> bool:
    _check_compatible(a, b)
    return all(
        a.accepts(t) == b.accepts(t) for t in enumerate_trees(a.alphabet, a.rank, max_nv)
    )


# ---------------------------------------------------------------------------
# quotients


def left_quotient(a: TreeAutomaton, u: RankedTree, k1: int, k2: int) -> TreeAutomaton:
    """Automaton for { f | a accepts u . (k1 units + f + k2 units) }.

    u has rank k1+1+k2; the result has rank k - k1 - k2.  The hole's
    variable is re-pointed at each candidate state; u's own variables keep
    their original global indices (left block 1..k1, right block shifted
    past the filling).
    """
    k = a.rank
    if k1 < 0 or k2 < 0 or k1 + k2 > k:
        raise ValueError("rank arithmetic violation")
    if rank(u) != k1 + 1 + k2:
        raise ValueError(f"context tree has rank {rank(u)}, expected {k1 + 1 + k2}")
    new_rank = k - k1 - k2
    left, right = a.var_state[:k1], a.var_state[k1 + new_rank :]
    finals = frozenset(
        q for q in range(a.n_states) if _eval(a, u, left + (q,) + right) in a.finals
    )
    var_state = tuple(a.var_state[k1 + j] for j in range(new_rank))
    return TreeAutomaton(a.alphabet, new_rank, a.n_states, var_state, a.transitions, finals)


def right_quotient(a: TreeAutomaton, v) -> TreeAutomaton:
    """Automaton for { f | a accepts f . v }, v a tuple of total rank k."""
    v = tuple(v)
    k = a.rank
    if total_rank(v) != k:
        raise ValueError(f"tuple has total rank {total_rank(v)}, expected {k}")
    var_state = []
    offset = 0
    for comp in v:
        var_state.append(_eval(a, comp, a.var_state[offset:]))
        offset += rank(comp)
    return TreeAutomaton(
        a.alphabet, len(v), a.n_states, tuple(var_state), a.transitions, a.finals
    )


def _eval(a: TreeAutomaton, t: RankedTree, var_state) -> int:
    """a's state at t when each v_j leaf is in var_state[j-1]."""
    return fold(t, lambda j: var_state[j - 1], lambda name, qs: a.transitions[name][qs])


def quotient_membership(a: TreeAutomaton, u, k1, k2, f) -> bool:
    """Definitional oracle: a accepts u . (k1 units + f + k2 units)."""
    return a.accepts(compose(u, unit_tuple(k1) + (f,) + unit_tuple(k2)))


# ---------------------------------------------------------------------------
# builtin languages over ranked Boolean alphabets


def boolean_alphabet(arities) -> RankedAlphabet:
    """The alphabet with letters 1_n, 0_n for each requested arity."""
    syms = []
    for n in sorted(set(arities)):
        syms.append((f"1_{n}", n))
        syms.append((f"0_{n}", n))
    return RankedAlphabet(tuple(syms))


def _require_boolean(alph: RankedAlphabet):
    for n in alph.arities():
        have = set(alph.by_arity(n))
        if have != {f"1_{n}", f"0_{n}"}:
            raise ValueError(f"not a ranked Boolean alphabet at arity {n}: {sorted(have)}")


def _is_one(name):
    return name.startswith("1_")


def _make(alph, k, n_states, var_q, delta, finals):
    transitions = {}
    for name, m in alph.symbols:
        table = {}
        for combo in itertools.product(range(n_states), repeat=m):
            table[combo] = delta(name, combo)
        transitions[name] = table
    return TreeAutomaton(
        alph, k, n_states, (var_q,) * k, transitions, frozenset(finals)
    )


@functools.cache
def k_exists(alph: RankedAlphabet, k: int) -> TreeAutomaton:
    """Trees containing at least one 1-labelled node.  States: 0 no, 1 yes."""
    _require_boolean(alph)
    return _make(
        alph,
        k,
        2,
        0,
        lambda name, qs: 1 if _is_one(name) or any(qs) else 0,
        {1},
    )


@functools.cache
def k_mod(alph: RankedAlphabet, k: int, p: int, r: int) -> TreeAutomaton:
    """Trees whose number of 1-labelled nodes is congruent to r mod p."""
    _require_boolean(alph)
    if p < 2 or not 0 <= r < p:
        raise ValueError(f"need p >= 2 and 0 <= r < p, got {(p, r)}")
    return _make(
        alph,
        k,
        p,
        0,
        lambda name, qs: (sum(qs) + (1 if _is_one(name) else 0)) % p,
        {r},
    )


def k_path(alph: RankedAlphabet, k: int) -> TreeAutomaton:
    """Trees with a root-to-leaf path of 1-labelled nodes.

    A path ending at a variable leaf counts vacuously: the variable leaf
    contributes a good path with no NV nodes on it.
    """
    _require_boolean(alph)

    def delta(name, qs):
        if not _is_one(name):
            return 0
        if not qs:  # leaf: path of length one
            return 1
        return 1 if any(qs) else 0

    return _make(alph, k, 2, 1, delta, {1})


def k_forall_next(alph: RankedAlphabet, k: int) -> TreeAutomaton:
    """Trees whose root's NV children are all 1-labelled.

    Variable children are vacuous, matching the place-marker reading of
    variable leaves; a childless root satisfies the condition vacuously.
    State encodes (kind of the node: 0 var, 1 one-labelled, 2
    zero-labelled; whether all NV children are one-labelled).
    """
    _require_boolean(alph)

    def enc(kind, ok):
        return kind * 2 + (1 if ok else 0)

    def delta(name, qs):
        kind = 1 if _is_one(name) else 2
        ok = all(q // 2 in (0, 1) for q in qs)
        return enc(kind, ok)

    finals = {enc(kind, True) for kind in (0, 1, 2)}
    return _make(alph, k, 6, enc(0, True), delta, finals)


# ---------------------------------------------------------------------------
# text format


def automaton_to_text(a: TreeAutomaton) -> str:
    lines = [f"rank {a.rank}", f"states {a.n_states}"]
    lines.append("finals" + "".join(f" {q}" for q in sorted(a.finals)))
    for j in range(a.rank):
        lines.append(f"var {j + 1} {a.var_state[j]}")
    for name, m in a.alphabet.symbols:
        table = a.transitions[name]
        for combo in itertools.product(range(a.n_states), repeat=m):
            args = "".join(f" {q}" for q in combo)
            lines.append(f"trans {name}{args} -> {table[combo]}")
    return "\n".join(lines) + "\n"


def automaton_from_text(text: str) -> TreeAutomaton:
    rank_k = n_states = finals = None
    var_entries, trans, arity = {}, {}, {}
    once = {}  # the rank, states, finals and var j lines: key -> line
    named = []  # (line, state) of every state a line names
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kw = parts[0]
        try:
            key = f"var {int(parts[1])}" if kw == "var" else kw
            if kw != "trans" and once.setdefault(key, lineno) != lineno:
                raise ParseError(f"line {lineno}: a second {key} line")
            if kw == "rank":
                rank_k = int(parts[1])
            elif kw == "states":
                n_states = int(parts[1])
            elif kw == "finals":
                finals = frozenset(int(p) for p in parts[1:])
                named += [(lineno, q) for q in finals]
            elif kw == "var":
                var_entries[int(parts[1])] = int(parts[2])
                named.append((lineno, int(parts[2])))
            elif kw == "trans":
                arrow = parts.index("->")
                name = parts[1]
                combo = tuple(int(p) for p in parts[2:arrow])
                target = int(parts[arrow + 1])
                if arity.setdefault(name, len(combo)) != len(combo):
                    raise ParseError(f"line {lineno}: {name} already has arity {arity[name]}")
                if combo in trans.setdefault(name, {}):
                    raise ParseError(f"line {lineno}: duplicate transition")
                trans[name][combo] = target
                named += [(lineno, q) for q in combo + (target,)]
            else:
                raise ParseError(f"line {lineno}: unknown keyword {kw!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if rank_k is None or n_states is None or finals is None:
        raise ParseError("missing rank/states/finals line")
    for lineno, q in named:  # the states line may come after these
        if not 0 <= q < n_states:
            raise ParseError(f"line {lineno}: state {q} outside 0..{n_states - 1}")
    var_state = tuple(var_entries.pop(j, -1) for j in range(1, rank_k + 1))
    for j in var_entries:  # the var lines left lie outside 1..rank
        raise ParseError(f"line {once[f'var {j}']}: variable v{j} outside rank {rank_k}")
    if any(q < 0 for q in var_state):
        raise ParseError("missing var line")
    alph = RankedAlphabet(tuple(arity.items()))
    return TreeAutomaton(alph, rank_k, n_states, var_state, trans, finals)


def load_automaton(path) -> TreeAutomaton:
    with open(path) as fh:
        return automaton_from_text(fh.read())


def save_automaton(a: TreeAutomaton, path):
    with open(path, "w") as fh:
        fh.write(automaton_to_text(a))


def random_automaton(alph: RankedAlphabet, k: int, n_states: int, rng) -> TreeAutomaton:
    """A uniformly random deterministic complete automaton (seeded rng)."""
    transitions = {}
    for name, m in alph.symbols:
        table = {}
        for combo in itertools.product(range(n_states), repeat=m):
            table[combo] = rng.randrange(n_states)
        transitions[name] = table
    var_state = tuple(rng.randrange(n_states) for _ in range(k))
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.5)
    return TreeAutomaton(alph, k, n_states, var_state, transitions, finals)
