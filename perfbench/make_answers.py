"""Write perfbench/known_answers.json.

The formula counts come from the semantics alone: every structure that
``logic.structures`` enumerates is evaluated with ``logic.satisfies``; the
compiler is never run.  The algebra answers are the paper's: the
syntactic pg-pair of "some node is labelled 1" has two classes per sort
and is T_exists; that of "the count of 1s is r mod p" has p classes per
sort and is T_p; every preclone satisfies the axioms, and a dump with one
composition result changed does not.

Run from the repository root:  python3 perfbench/make_answers.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from preclones import cli, logic  # noqa: E402

CORPUS_MAX_NV = 4  # the bound of acceptance criterion 4
SEMANTICS_MAX_NV = 7
# criterion 1's random automata over f/2,a/0,b/0 as (states, seed); seeded
# random automata mostly do not close (see README.md), so the set is fixed
RANDOM_AUTOMATA = [(2, 16), (2, 3), (3, 41), (3, 185), (3, 249)]


def quantifier_depth(phi):
    if isinstance(phi, logic.Not):
        return quantifier_depth(phi.sub)
    if isinstance(phi, (logic.Or, logic.And)):
        return max(quantifier_depth(phi.left), quantifier_depth(phi.right))
    if isinstance(phi, logic.QK):
        return 1 + max(quantifier_depth(f) for _, f in phi.family)
    return 0


def semantic_counts(phi, sigma, k, max_nv):
    variables = sorted(logic.free_vars(phi))
    checked = accepted = 0
    for t, lam, _ in logic.structures(sigma, variables, k, max_nv):
        checked += 1
        accepted += logic.satisfies(t, lam, phi)
    return {"checked": checked, "accepted": accepted}


def main():
    corpus = os.path.join(HERE, "corpus")
    corpus_table, semantics_table = {}, {}
    for fname in sorted(os.listdir(corpus)):
        if not fname.endswith(".lind"):
            continue
        name = fname[: -len(".lind")]
        phi, sigma, k, _ = cli.load_formula_file(os.path.join(corpus, fname))
        corpus_table[name] = semantic_counts(phi, sigma, k, CORPUS_MAX_NV)
        if quantifier_depth(phi) <= 1:
            semantics_table[name] = semantic_counts(phi, sigma, k, SEMANTICS_MAX_NV)
    axioms = {label: "OK" for label in ("texists", "tmod2", "tmod3")}
    for states, seed in RANDOM_AUTOMATA:
        axioms[f"random-{states}-{seed}"] = "OK"
    answers = {
        "corpus": {"max_nv": CORPUS_MAX_NV, "formulas": corpus_table},
        "semantics": {"max_nv": SEMANTICS_MAX_NV, "formulas": semantics_table},
        "algebra": {
            "axioms": axioms,
            "random_automata": RANDOM_AUTOMATA,
            "syntactic": {
                "k_exists0": {"classes": [2, 2, 2, 2], "isomorphic_to": "texists"},
                "k_mod_2_0": {"classes": [2, 2, 2, 2], "isomorphic_to": "tmod2"},
                "k_mod_2_1": {"classes": [2, 2, 2, 2], "isomorphic_to": "tmod2"},
                "k_mod_3_1": {"classes": [3, 3, 3, 3], "isomorphic_to": "tmod3"},
            },
            "corrupted": "VIOLATION",
        },
        "blockprod": {"violations": 0},
    }
    with open(os.path.join(HERE, "known_answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
