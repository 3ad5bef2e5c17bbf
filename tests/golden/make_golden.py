"""Regenerate the golden CLI outputs checked by tests/test_golden.py.

Run from anywhere:

    python tests/golden/make_golden.py

Every output comes from a fresh ``python -m preclones.cli`` process, the
same way the test reads it back.  Only regenerate when a change of output
is intended; the point of the files is that a refactor leaves them alone.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))
CORPUS = os.path.join(ROOT, "tests", "corpus")

# the whole corpus: every formula builds atom automata and Boolean products,
# and ex04, ex05, ex15, ex19, ex27 and ex31 also go through a block product
# (ex15 reuses one written binder in two sibling scopes, ex27 nests deepest,
# ex31 has a free variable beside a bound one)
COMPILED = tuple(f"ex{i:02d}" for i in range(1, 33))
SYNTACTIC_ARGS = ("syntactic", os.path.join(CORPUS, "k_exists0.aut"), "--trunc", "2")
TEXISTS_DUMP = os.path.join(GOLDEN, "t_exists2.pre")
BLOCKPROD_ARGS = ("blockprod", TEXISTS_DUMP, TEXISTS_DUMP, "--k", "0", "--trunc", "2")
# axioms reports name their input, so their paths are relative to ROOT
AXIOMS = (
    ("axioms_texists_trunc3.txt", ("--builtin", "texists", "--trunc", "3")),
    ("axioms_k_exists0_trunc3.txt",
     ("--automaton", "tests/corpus/k_exists0.aut", "--trunc", "3")),
    ("axioms_k_path0_trunc2.txt",
     ("--automaton", "tests/corpus/k_path0.aut", "--trunc", "2")),
    ("axioms_t_exists2_sampled200_seed3.txt",
     ("--dump", "tests/golden/t_exists2.pre", "--mode", "sampled",
      "--samples", "200", "--seed", "3")),
    ("axioms_tmod3_trunc3.txt", ("--builtin", "tmod", "--p", "3", "--trunc", "3")),
)


def cli(args, hash_seed="0"):
    """stdout of ``python -m preclones.cli ARGS`` in a fresh process at ROOT."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "preclones.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def blockprod_digest(text):
    """(sha256 hex, carrier line) of a blockprod dump."""
    return hashlib.sha256(text.encode()).hexdigest(), text.split("\n", 1)[0]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from preclones.preclone import dump_preclone, t_exists

    pg = t_exists(2)
    with open(TEXISTS_DUMP, "w") as fh:
        fh.write(dump_preclone(pg.preclone, pg.generators))

    for name in COMPILED:
        out = os.path.join(GOLDEN, "compile", name)
        shutil.rmtree(out, ignore_errors=True)
        cli(["compile", os.path.join(CORPUS, name + ".lind"), "--out", out])

    with open(os.path.join(GOLDEN, "syntactic_k_exists0_trunc2.txt"), "w") as fh:
        fh.write(cli(SYNTACTIC_ARGS))

    for fname, args in AXIOMS:
        with open(os.path.join(GOLDEN, fname), "w") as fh:
            fh.write(cli(["axioms", *args]))

    digest, carrier = blockprod_digest(cli(BLOCKPROD_ARGS))
    with open(os.path.join(GOLDEN, "blockprod_t_exists2_k0_trunc2.txt"), "w") as fh:
        fh.write(f"sha256 {digest}\n{carrier}\n")


if __name__ == "__main__":
    main()
