"""Seeded edits of formula and tree texts, and the parser's outcome on each.

    python tests/golden/parse_edits.py          # rewrite parse_outcomes.txt
    python tests/golden/parse_edits.py --print  # print the outcomes instead

Every corpus formula is parsed unedited and after 200 seeded one-character
edits (a deletion, an insertion or a replacement), with its file's
alphabet, rank and languages; six tree texts are parsed unedited and after
300 edits each, at each of four expected ranks.  Each outcome is one line,
``OK <sha1 of repr(result)>`` or ``ParseError <message>``, in case order.
The golden file pins the grammars, the results and every message, so a
rewrite of either parser must leave it byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))
CORPUS = os.path.join(ROOT, "tests", "corpus")
OUTCOMES = os.path.join(GOLDEN, "parse_outcomes.txt")

SEED = 31
FORMULA_EDITS = 200
TREE_EDITS = 300
# every token class of both grammars, whitespace, and characters neither reads
CHARS = "()[]{},;:.<&|!->_@$ \t\nPQvxyz019#%é"
TREE_TEXTS = (
    ("dbool", "0_2(1_0,0_0)"),
    ("dbool", "0_2(0_0,0_0)"),
    ("dbool", "1_2(0_0,0_2(v1,1_0))"),
    ("sigma_ex", "f(a,b)"),
    ("sigma_ex", "f(v1,f(a,v2))"),
    ("sigma_ex", " f( f(v1,b) , v2 ) "),
)
TREE_RANKS = (None, 0, 1, 2)


def edits(rng, text, n, chars=CHARS):
    """text, then n seeded one-character edits of it, inserting from chars."""
    yield text
    for _ in range(n):
        op, i, ch = rng.randrange(3), rng.randrange(len(text) + 1), rng.choice(chars)
        if op == 0 and i < len(text):
            yield text[:i] + text[i + 1:]
        elif op == 1 or i == len(text):
            yield text[:i] + ch + text[i:]
        else:
            yield text[:i] + ch + text[i + 1:]


def cases(seed=SEED, chars=CHARS):
    """(parse function, text, further arguments) for every case, in order."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from preclones.cli import load_formula_file
    from preclones.logic import parse_formula
    from preclones.trees import load_alphabet, parse_tree

    rng = random.Random(seed)
    for i in range(1, 33):
        path = os.path.join(CORPUS, f"ex{i:02d}.lind")
        _, sigma, k, langs = load_formula_file(path)
        with open(path) as fh:
            text = re.split(r"^\s*formula(?!\S)", fh.read(), maxsplit=1, flags=re.M)[1].strip()
        for edited in edits(rng, text, FORMULA_EDITS, chars):
            yield parse_formula, edited, (sigma, k, langs)
    for alph, text in TREE_TEXTS:
        sigma = load_alphabet(os.path.join(CORPUS, f"{alph}.alph"))
        for edited in edits(rng, text, TREE_EDITS, chars):
            for k in TREE_RANKS:
                yield parse_tree, edited, (sigma, k)


def outcome(parse, text, args):
    """The case's golden line; exceptions other than ParseError propagate."""
    from preclones.errors import ParseError

    try:
        result = parse(text, *args)
    except ParseError as exc:
        return f"ParseError {exc}"
    return "OK " + hashlib.sha1(repr(result).encode()).hexdigest()


def outcomes():
    return "".join(outcome(*case) + "\n" for case in cases())


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(outcomes())
    else:
        with open(OUTCOMES, "w") as fh:
            fh.write(outcomes())
