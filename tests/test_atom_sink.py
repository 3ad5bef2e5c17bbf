"""The atom automata against a sink-free reference.

``compiler._atom_automaton`` sends every node whose saturated occurrence
counts hold a 2 to one sink state.  The reference below builds the same
automaton from the same pieces (``_letters``, ``_counts_add``,
``_payload``, ``_is_final``) with no sink, so every dead state is
explored; minimized with the valid set preserved, both must be the same
automaton with the same valid states.  Two sink mutations, built here
from the reference, show that the comparison catches a wrong sink.
"""

import functools

import pytest

from preclones import compiler
from preclones.automata import automaton_equal, boolean_alphabet, build, minimize
from preclones.logic import (
    FALSE,
    LeftJ,
    Less,
    Max,
    PSym,
    RightJ,
    Root,
    Succ,
    TRUE,
    TrueF,
    extend_alphabet,
)
from preclones.trees import alphabet

DBOOL = boolean_alphabet([0, 2])
SIGMA_EX = alphabet("f/2", "a/0", "b/0")
UNARY_TERNARY = alphabet("g/1", "h/3", "a/0", "b/0")


@functools.cache
def reference_atom_automaton(phi, sigma, variables, k, sink=None, sink_valid=False):
    """``_atom_automaton`` without a sink; ``sink(counts)`` and
    ``sink_valid`` add one, for the mutations."""
    variables = tuple(sorted(variables))
    vpos = {v: i for i, v in enumerate(variables)}
    letters = compiler._letters(extend_alphabet(sigma, variables), variables)
    zeros = (0,) * len(variables)
    ones = (1,) * len(variables)
    dead = ("nv", (2,) * len(variables), ())

    def node_state(name, child_states):
        base, zs, extra = letters[name]
        counts = zeros
        for s in child_states:
            if s[0] == "nv":
                counts = compiler._counts_add(counts, s[1])
        counts = compiler._counts_add(counts, extra)
        if sink is not None and sink(counts):
            return dead
        return ("nv", counts, compiler._payload(phi, base, zs, child_states, vpos, k))

    unit_ok = not variables

    def is_sat(s):
        if s[0] == "var":
            return unit_ok and isinstance(phi, TrueF)
        return s[1] == ones and compiler._is_final(phi, s[2])

    var_states = [("var", j) for j in range(1, k + 1)]
    aut, ordered = build(extend_alphabet(sigma, variables), k, var_states, node_state, is_sat)
    valid = frozenset(
        i
        for i, s in enumerate(ordered)
        if (s[0] == "nv" and s[1] == ones) or (s[0] == "var" and unit_ok)
        or (sink_valid and s == dead)
    )
    return aut, valid


def same_minimum(a, b):
    """Minimized with the valid set preserved, ``a`` and ``b`` (each an
    (automaton, valid states) pair) are one automaton with one valid set."""
    (ma, (va,)), (mb, (vb,)) = minimize(a[0], [a[1]]), minimize(b[0], [b[1]])
    return automaton_equal(ma, mb) and va == vb


def atoms(sigma, k):
    """(atom, variables) for every atom kind at rank k over ``sigma``."""
    out = []
    for Y in (("x",), ("x", "y")):
        out += [(PSym(sigma.symbols[0][0], "x"), Y), (Root("x"), Y), (TRUE, Y), (FALSE, Y)]
        if k:
            out += [(LeftJ(k, "x"), Y), (RightJ(1, "x"), Y), (Max(sigma.max_arity, k, "x"), Y)]
    out += [(Less("x", "y"), ("x", "y")), (Less("y", "x"), ("x", "y"))]
    out += [(Succ(i, "x", "y"), ("x", "y")) for i in range(1, sigma.max_arity + 1)]
    return out


CASES = [
    (sigma_name, sigma, k, phi, Y)
    for sigma_name, sigma in (("dbool", DBOOL), ("sigma_ex", SIGMA_EX))
    for k in (0, 1, 2)
    for phi, Y in atoms(sigma, k)
]


@pytest.mark.parametrize("sigma_name,sigma,k,phi,Y", CASES,
                         ids=[f"{c[0]}-k{c[2]}-{c[3]}-{''.join(c[4])}" for c in CASES])
def test_atom_automaton_matches_the_sink_free_reference(sigma_name, sigma, k, phi, Y):
    new = compiler._atom_automaton(phi, sigma, Y, k)
    assert same_minimum(new, reference_atom_automaton(phi, sigma, Y, k))


# the g/1, h/3 atoms at rank 1 whose sink-free reference builds in under 1 s
UNARY_TERNARY_ATOMS = [
    (PSym("g", "x"), ("x",)),
    (Root("x"), ("x",)),
    (LeftJ(1, "x"), ("x",)),
    (RightJ(1, "x"), ("x",)),
    (Max(3, 1, "x"), ("x",)),
    (PSym("h", "x"), ("x", "y")),
    (Less("x", "y"), ("x", "y")),
    (Succ(3, "x", "y"), ("x", "y")),
]


@pytest.mark.parametrize("phi,Y", UNARY_TERNARY_ATOMS, ids=str)
def test_unary_ternary_atom_automaton_matches_the_sink_free_reference(phi, Y):
    new = compiler._atom_automaton(phi, UNARY_TERNARY, Y, 1)
    assert same_minimum(new, reference_atom_automaton(phi, UNARY_TERNARY, Y, 1))


def test_left_1_over_two_variables_builds_twenty_states():
    # the sink-free reference builds 46 states here, in seconds
    aut, valid = compiler._atom_automaton(LeftJ(1, "x"), UNARY_TERNARY, ("x", "y"), 1)
    assert aut.n_states == 20
    assert minimize(aut, [valid])[0].n_states == 13
    # at rank 2 the ternary letter gives minimize 31 states, n^2 tuples each
    aut, valid = compiler._atom_automaton(LeftJ(1, "x"), UNARY_TERNARY, ("x", "y"), 2)
    assert aut.n_states == 31
    assert minimize(aut, [valid])[0].n_states == 13


MUTATIONS = {
    # the sink is put in the valid set
    "sink_marked_valid": dict(sink=lambda counts: 2 in counts, sink_valid=True),
    # the sink is returned once y occurs, a count holding no 2
    "sink_without_a_2": dict(sink=lambda counts: counts[-1] >= 1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_wrong_sink_is_caught(mutation):
    # at rank 1, every atom over every alphabet tells the mutant from the reference
    for _, sigma, k, phi, Y in CASES:
        if k == 1:
            mutant = reference_atom_automaton(phi, sigma, Y, k, **MUTATIONS[mutation])
            assert not same_minimum(mutant, reference_atom_automaton(phi, sigma, Y, k))
