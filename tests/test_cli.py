import os
import random
import re
import shutil

import pytest

from preclones.cli import load_formula_file, main
from preclones.preclone import load_preclone, t_exists
from preclones.syntactic import isomorphic

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
GOLDEN_TEXISTS = os.path.join(os.path.dirname(__file__), "golden", "t_exists2.pre")


def corp(name):
    return os.path.join(CORPUS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_sat(capsys):
    code, out, _ = run(capsys, "eval", corp("tree_sat.tr"), corp("ex01.lind"))
    assert code == 0 and out.strip() == "SAT"


def test_eval_unsat(capsys):
    code, out, _ = run(capsys, "eval", corp("tree_unsat.tr"), corp("ex01.lind"))
    assert code == 1 and out.strip() == "UNSAT"


def test_eval_malformed_tree(tmp_path, capsys):
    bad = tmp_path / "bad.tr"
    bad.write_text("1_2(1_0")
    code, _, err = run(capsys, "eval", str(bad), corp("ex01.lind"))
    assert code == 2 and "error" in err


def test_eval_rejects_open_formula(capsys):
    code, _, err = run(capsys, "eval", corp("tree_sat.tr"), corp("ex31.lind"))
    assert code == 2 and "free variables" in err


def test_check_equiv_pass(capsys):
    # the elapsed time goes to stderr, so stdout depends on the inputs alone
    code, out, err = run(capsys, "check-equiv", corp("ex01.lind"), "--max-nv", "3")
    assert code == 0
    assert out == "checked 10 structures, 7 accepted: PASS\n"
    assert re.fullmatch(r"elapsed \d+\.\d\ds\n", err)


def test_check_equiv_open_formula(capsys):
    code, out, _ = run(capsys, "check-equiv", corp("ex31.lind"), "--max-nv", "3")
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("argv", [
    ["check-equiv", corp("ex01.lind"), "--max-nv", "-1"],
    ["enumerate", "--alphabet", corp("sigma_ex.alph"), "--rank", "0",
     "--max-nv", "-1"],
], ids=["check-equiv", "enumerate"])
def test_negative_max_nv_is_an_error(argv, capsys):
    # a bound below 0 checks nothing; it must not read as a vacuous PASS
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: max_nv must be >= 0, got -1\n"


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--alphabet", corp("sigma_ex.alph"), "--rank", "-1", "--max-nv", "2"],
     "rank must be >= 0, got -1"),
    (["blockprod", GOLDEN_TEXISTS, GOLDEN_TEXISTS, "--k", "-1"], "k must be >= 0, got -1"),
], ids=["enumerate", "blockprod"])
def test_negative_rank_is_an_error(argv, message, capsys):
    # no tree has a rank below 0; it must not read as an empty listing or a carrier
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_at_sign_in_an_alphabet_symbol_is_an_error(tmp_path, capsys):
    # '@' marks the variables of a structure label: a@b would read as the
    # letter a carrying the variable b, so the compiled side would disagree
    (tmp_path / "at.alph").write_text("f/2\na@b/0\nc/0\n")
    (tmp_path / "at.tr").write_text("f(a@b,c)\n")
    lind = tmp_path / "at.lind"
    lind.write_text("alphabet at.alph\nrank 0\nformula exists x. P[a@b](x)\n")
    code, out, err = run(capsys, "check-equiv", str(lind), "--max-nv", "3")
    assert code == 2 and out == ""
    assert err == "error: symbols ['a@b'] hold '@', which marks variables in labels\n"
    # the semantics alone never splits a label
    code, out, _ = run(capsys, "eval", str(tmp_path / "at.tr"), str(lind))
    assert code == 0 and out == "SAT\n"


def test_syntactic_class_counts(capsys):
    code, out, _ = run(capsys, "syntactic", corp("k_exists0.aut"), "--trunc", "3")
    assert code == 0
    assert out.splitlines()[0] == "classes 2 2 2 2"


def test_syntactic_dump_loadable_and_isomorphic(tmp_path, capsys):
    out_file = tmp_path / "syn.pre"
    code, _, _ = run(
        capsys, "syntactic", corp("k_exists0.aut"), "--trunc", "3",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("classes"))
    S, gens = load_preclone(body)
    assert isomorphic(S, t_exists(3).preclone)
    assert len(gens) == 4  # the images of the four letters


def test_syntactic_rank_mismatch(capsys):
    code, _, err = run(capsys, "syntactic", corp("k_exists0.aut"), "--rank", "1")
    assert code == 2


# a rank-1 automaton over a/0, g/1, and edits that name a state outside 0..1
RANK1_AUT = "rank 1\nstates 2\nfinals 1\nvar 1 0\ntrans a -> 0\ntrans g 0 -> 1\ntrans g 1 -> 1\n"
OUT_OF_RANGE = {
    "target": ("trans a -> 0", "trans a -> 5", "line 5: state 5 outside 0..1"),
    "var": ("var 1 0", "var 1 9", "line 4: state 9 outside 0..1"),
    "finals": ("finals 1", "finals 7", "line 3: state 7 outside 0..1"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_syntactic_rejects_a_state_outside_the_declared_states(tmp_path, capsys, case):
    old, new, message = OUT_OF_RANGE[case]
    path = tmp_path / "bad.aut"
    path.write_text(RANK1_AUT.replace(old, new))
    code, out, err = run(capsys, "syntactic", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    path.write_text(RANK1_AUT)
    assert run(capsys, "syntactic", str(path))[0] == 0


# edits of RANK1_AUT that give a letter two arities, place a variable
# outside the rank, repeat a line that must come once, add a token or
# make a count negative
MALFORMED = {
    "two_arities": ("trans g 1 -> 1", "trans g 1 0 -> 1", "line 7: g already has arity 1"),
    "var_outside_rank": ("var 1 0", "var 1 0\nvar 3 1", "line 5: variable v3 outside rank 1"),
    "second_rank": ("rank 1", "rank 1\nrank 1", "line 2: a second rank line"),
    "second_states": ("states 2", "states 2\nstates 2", "line 3: a second states line"),
    "second_finals": ("finals 1", "finals 1\nfinals 0", "line 4: a second finals line"),
    "second_var": ("var 1 0", "var 1 0\nvar 1 1", "line 5: a second var 1 line"),
    "rank_extra": ("rank 1", "rank 1 5", "line 1: expected 'rank <k>'"),
    "states_extra": ("states 2", "states 2 9", "line 2: expected 'states <n>'"),
    "trans_extra": ("trans a -> 0", "trans a -> 0 1",
                    "line 5: expected '->' before the target, not '0'"),
    "negative_rank": ("rank 1", "rank -1", "line 1: rank '-1' is not a non-negative integer"),
    "negative_states": ("states 2", "states -1",
                        "line 2: states '-1' is not a non-negative integer"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_syntactic_rejects_a_malformed_automaton_line(tmp_path, capsys, case):
    old, new, message = MALFORMED[case]
    path = tmp_path / "bad.aut"
    path.write_text(RANK1_AUT.replace(old, new))
    code, out, err = run(capsys, "syntactic", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"  # one line, no traceback


def test_syntactic_empty_language(tmp_path, capsys):
    from preclones.automata import boolean_alphabet, complement, intersect, k_exists, save_automaton

    DB = boolean_alphabet([0, 2])
    a = k_exists(DB, 0)
    empty = intersect(a, complement(a))
    path = tmp_path / "empty.aut"
    save_automaton(empty, path)
    code, out, _ = run(capsys, "syntactic", str(path), "--trunc", "3")
    assert code == 0
    assert out.splitlines()[0] == "classes 1 1 1 1"


def test_enumerate_lists_six_trees(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--alphabet", corp("sigma_ex.alph"),
        "--rank", "0", "--max-nv", "3",
    )
    assert code == 0
    assert out.splitlines() == ["a", "b", "f(a,a)", "f(a,b)", "f(b,a)", "f(b,b)"]


def test_enumerate_deterministic(capsys):
    args = ["enumerate", "--alphabet", corp("dbool.alph"), "--rank", "1", "--max-nv", "3"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_axioms_builtin(capsys):
    code, out, _ = run(capsys, "axioms", "--builtin", "texists", "--trunc", "3")
    assert code == 0 and "OK" in out
    code, out, _ = run(capsys, "axioms", "--builtin", "tmod", "--p", "3", "--trunc", "3")
    assert code == 0 and "OK" in out


def test_axioms_automaton_and_sampled(capsys):
    code, out, _ = run(
        capsys, "axioms", "--automaton", corp("k_exists0.aut"), "--trunc", "3",
        "--mode", "sampled", "--samples", "100", "--seed", "7",
    )
    assert code == 0 and "seed=7" in out


def test_axioms_needs_target(capsys):
    code, _, err = run(capsys, "axioms")
    assert code == 2


def test_compile_writes_recognizer(tmp_path, capsys):
    out_dir = tmp_path / "rec"
    code, out, _ = run(capsys, "compile", corp("ex01.lind"), "--out", str(out_dir))
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["accepting.txt", "carrier.pre", "gamma.map", "meta.txt"]
    S, gens = load_preclone((out_dir / "carrier.pre").read_text())
    assert S.sort_size(0) >= 1 and gens


def test_blockprod_from_dumps(tmp_path, capsys):
    from preclones.preclone import dump_preclone

    pg = t_exists(2)
    dump = tmp_path / "texists.pre"
    dump.write_text(dump_preclone(pg.preclone, pg.generators))
    code, out, _ = run(
        capsys, "blockprod", str(dump), str(dump), "--k", "0", "--trunc", "2",
    )
    assert code == 0
    assert out.startswith("carrier ")
    # deterministic output
    code2, out2, _ = run(
        capsys, "blockprod", str(dump), str(dump), "--k", "0", "--trunc", "2",
    )
    assert out == out2


def test_blockprod_explicit_generators(tmp_path, capsys):
    from preclones.preclone import dump_preclone

    pg = t_exists(2)
    dump = tmp_path / "texists.pre"
    dump.write_text(dump_preclone(pg.preclone, pg.generators))
    # one rank-0 generator: f = true_0, F table over I_{0,0} (2 contexts)
    gens = tmp_path / "gens.txt"
    gens.write_text("0.1 0.0 0.1\n")
    code, out, _ = run(
        capsys, "blockprod", str(dump), str(dump), "--k", "0", "--trunc", "2",
        "--generators", str(gens),
    )
    assert code == 0 and out.startswith("carrier ")


def test_load_formula_file_parses_langs():
    phi, sigma, k, langs = load_formula_file(corp("ex10.lind"))
    assert k == 0 and "kpath" in langs


def test_corpus_files_all_load():
    names = sorted(n for n in os.listdir(CORPUS) if n.endswith(".lind"))
    assert len(names) >= 25
    for name in names:
        load_formula_file(corp(name))


GOLDEN_DUMP = os.path.join(os.path.dirname(__file__), "golden", "t_exists2.pre")


def edited_dump(tmp_path, old, new):
    text = open(GOLDEN_DUMP).read()
    if old:
        assert text.count(old) == 1
        text = text.replace(old, new)
    else:
        text += new
    path = tmp_path / "edited.pre"
    path.write_text(text)
    return str(path)


def test_axioms_rejects_a_unit_of_rank_two(tmp_path, capsys):
    dump = edited_dump(tmp_path, "unit 1.0\n", "unit 2.0\n")
    code, out, err = run(capsys, "axioms", "--dump", dump)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "rank 1" in err


def test_axioms_rejects_a_unit_outside_its_sort(tmp_path, capsys):
    dump = edited_dump(tmp_path, "unit 1.0\n", "unit 1.7\n")
    code, _, err = run(capsys, "axioms", "--dump", dump)
    assert code == 2 and err.startswith("error:") and "1.7" in err


def test_axioms_names_a_missing_composition_in_comp_line_tokens(capsys):
    # a compile carrier lists only the compositions of result rank <= k
    dump = os.path.join(os.path.dirname(__file__), "golden", "compile", "ex21", "carrier.pre")
    code, out, err = run(capsys, "axioms", "--dump", dump)
    assert code == 2 and out == ""
    assert err == "error: dump has no composition for 1.0 (2.0)\n"


def test_blockprod_rejects_a_generator_outside_its_sort(tmp_path, capsys):
    dump = edited_dump(tmp_path, None, "gen 0.9\n")
    code, _, err = run(capsys, "blockprod", dump, dump, "--k", "0", "--trunc", "2")
    assert code == 2 and err.startswith("error:") and "0.9" in err


@pytest.mark.parametrize("argv", [
    ["eval", corp("tree_sat.tr"), corp("ex01.lind"), "--budget", "10"],
    ["enumerate", "--alphabet", corp("sigma_ex.alph"), "--rank", "0",
     "--max-nv", "1", "--budget", "10"],
    ["compile", corp("ex01.lind"), "--out", "{tmp}", "--trunc", "3"],
])
def test_removed_flags_are_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path / "rec") for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# edits of ex10's header (alphabet, rank, lang kpath) that leave a value
# out, give a bad rank, repeat a once-only line, add a token or misspell
# a keyword
HEADER_FAULTS = {
    "alphabet_without_value": ("alphabet dbool.alph", "alphabet",
                               "line 1: expected 'alphabet <path>'"),
    "rank_without_value": ("rank 0", "rank", "line 2: expected 'rank <k>'"),
    "lang_without_path": ("lang kpath k_path0.aut", "lang kpath",
                          "line 3: expected 'lang <name> <path>'"),
    "rank_not_a_number": ("rank 0", "rank x",
                          "line 2: rank 'x' is not a non-negative integer"),
    "negative_rank": ("rank 0", "rank -1",
                      "line 2: rank '-1' is not a non-negative integer"),
    "second_rank": ("rank 0", "rank 0\nrank 7", "line 3: a second rank line"),
    "second_alphabet": ("alphabet dbool.alph", "alphabet dbool.alph\nalphabet dbool.alph",
                        "line 2: a second alphabet line"),
    "second_lang": ("lang kpath k_path0.aut", "lang kpath k_path0.aut\nlang kpath k_path0.aut",
                    "line 4: a second lang kpath line"),
    "extra_token": ("rank 0", "rank 0 7", "line 2: expected 'rank <k>'"),
    "unknown_keyword": ("rank 0", "rank 0\nranks 0", "line 3: unknown keyword 'ranks'"),
}


@pytest.mark.parametrize("case", sorted(HEADER_FAULTS))
def test_eval_rejects_a_malformed_formula_header(tmp_path, capsys, case):
    old, new, message = HEADER_FAULTS[case]
    for name in ("dbool.alph", "k_path0.aut"):  # the header's paths are relative
        shutil.copy(corp(name), tmp_path / name)
    text = open(corp("ex10.lind")).read()
    assert text.count(old) == 1
    path = tmp_path / "edited.lind"
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, "eval", corp("tree_sat.tr"), str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"  # one line, no traceback
    path.write_text(text)
    assert run(capsys, "eval", corp("tree_sat.tr"), str(path))[0] in (0, 1)


# a generator file for blockprod over t_exists(2)'s dump with k = 0: per
# line a T-element f, then F's S-elements at the contexts of f's rank
GENERATORS = "# f F...\n0.1 0.0 0.1\n0.0 0.1 0.1\n"


def blockprod_with_generators(tmp_path, capsys, text, trunc="2"):
    path = tmp_path / "gens.txt"
    path.write_text(text)
    return run(capsys, "blockprod", GOLDEN_DUMP, GOLDEN_DUMP, "--k", "0",
               "--trunc", trunc, "--generators", str(path))


@pytest.mark.parametrize("old,new,message", [
    ("0.1 0.0 0.1", "0.7 0.0 0.1", "line 2: element 0.7 outside the declared sorts"),
    ("0.1 0.0 0.1", "0.1 0.0 9.9", "line 2: element 9.9 outside the declared sorts"),
    ("0.0 0.1 0.1", "0.0 0.1 0.1 0.1", "line 3: F table does not match the context enumeration"),
], ids=["f_outside", "F_outside", "F_too_long"])
def test_blockprod_rejects_a_generator_token_outside_the_dump(tmp_path, capsys, old, new, message):
    code, out, _ = blockprod_with_generators(tmp_path, capsys, GENERATORS)
    assert code == 0 and out.startswith("carrier ")
    code, out, err = blockprod_with_generators(tmp_path, capsys, GENERATORS.replace(old, new))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_blockprod_rejects_a_generator_above_the_truncation(tmp_path, capsys):
    code, out, err = blockprod_with_generators(tmp_path, capsys, "2.0 2.0 2.0\n", trunc="1")
    assert code == 2 and out == ""
    assert err == "error: line 1: generator of rank 2 above the truncation 1\n"


# edits of the t_exists(2) dump that repeat a once-only line or add a token
DUMP_FAULTS = {
    "second_trunc": ("trunc 2\n", "trunc 2\ntrunc 2\n", "dump line 2: a second trunc line"),
    "second_unit": ("unit 1.0\n", "unit 1.0\nunit 1.1\n", "dump line 6: a second unit line"),
    "second_sort": ("sort 1 2\n", "sort 1 2\nsort 1 3\n", "dump line 4: a second sort 1 line"),
    "second_desc": ("desc 1.0 or_1\n", "desc 1.0 or_1\ndesc 1.0 and_1\n",
                    "dump line 9: a second desc 1.0 line"),
    "trunc_extra": ("trunc 2\n", "trunc 2 7\n", "dump line 1: expected 'trunc <k>'"),
    "unit_extra": ("unit 1.0\n", "unit 1.0 junk\n", "dump line 5: expected 'unit <el>'"),
    "gen_extra": ("gen 0.1\n", "gen 0.1 9.9\n", "dump line 13: expected 'gen <el>'"),
    "comp_extra": ("comp 1: 1.0 (0.0) -> 0.0\n", "comp 1: 1.0 (0.0) -> 0.0 0.1\n",
                   "dump line 17: expected '->' before the result, not '0.0'"),
}


@pytest.mark.parametrize("case", sorted(DUMP_FAULTS))
def test_axioms_rejects_a_malformed_dump_line(tmp_path, capsys, case):
    old, new, message = DUMP_FAULTS[case]
    code, out, err = run(capsys, "axioms", "--dump", edited_dump(tmp_path, old, new))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# edits of sigma_ex.alph (f/2, a/0, b/0)
ALPHABET_FAULTS = {
    "arity_not_a_number": ("a/0", "a/x", "line 2: arity 'x' is not a non-negative integer"),
    "no_arity": ("a/0", "a", "line 2: expected '<name>/<arity>'"),
    "negative_arity": ("a/0", "a/-1", "line 2: arity '-1' is not a non-negative integer"),
    "extra_token": ("a/0", "a/0 b/0", "line 2: expected '<name>/<arity>'"),
    "no_name": ("a/0", "/0", "line 2: expected '<name>/<arity>'"),
    "second_symbol": ("b/0", "b/0\nf/1", "line 4: a second line for symbol 'f'"),
}


@pytest.mark.parametrize("case", sorted(ALPHABET_FAULTS))
def test_enumerate_rejects_a_malformed_alphabet_line(tmp_path, capsys, case):
    old, new, message = ALPHABET_FAULTS[case]
    text = open(corp("sigma_ex.alph")).read()
    assert text.count(old) == 1
    path = tmp_path / "edited.alph"
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, "enumerate", "--alphabet", str(path),
                         "--rank", "0", "--max-nv", "2")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# edits of the files ex10's header names; the error carries the header's
# line number and the named file's path before the file's own line
NAMED_FILE_FAULTS = {
    "lang": ("k_path0.aut", "finals 1", "finals 7",
             "line 3: k_path0.aut line 3: state 7 outside 0..1"),
    "alphabet": ("dbool.alph", "1_0/0", "1_0/x",
                 "line 1: dbool.alph line 1: arity 'x' is not a non-negative integer"),
}


@pytest.mark.parametrize("case", sorted(NAMED_FILE_FAULTS))
def test_eval_names_the_file_a_formula_header_reads(tmp_path, capsys, case):
    name, old, new, message = NAMED_FILE_FAULTS[case]
    for copied in ("dbool.alph", "k_path0.aut", "ex10.lind"):
        shutil.copy(corp(copied), tmp_path / copied)
    text = open(corp(name)).read()
    assert text.count(old) == 1
    (tmp_path / name).write_text(text.replace(old, new))
    code, out, err = run(capsys, "eval", corp("tree_sat.tr"), str(tmp_path / "ex10.lind"))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def mutated(text, rng):
    """text after one to three seeded one-character edits, each an insert,
    a delete or a replace, drawing from the text's own characters and a
    few that the formats give meaning to."""
    pool = sorted(set(text) | set("0123456789-.#/ \n"))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(pool)
        text = rng.choice([text[:i] + c + text[i:], text[:i] + text[i + 1:],
                           text[:i] + c + text[i + 1:]])
    return text


# per format: the file mutated (None for GENERATORS), the corpus files
# copied next to it and the command that reads it ({path} the mutated copy)
PROBED = {
    "automaton": (corp("k_path0.aut"), (), ["syntactic", "{path}"]),
    "dump": (GOLDEN_DUMP, (), ["axioms", "--dump", "{path}"]),
    "formula": (corp("ex10.lind"), ("dbool.alph", "k_path0.aut"),
                ["eval", corp("tree_sat.tr"), "{path}"]),
    "alphabet": (corp("sigma_ex.alph"), (), ["enumerate", "--alphabet", "{path}",
                                             "--rank", "0", "--max-nv", "3"]),
    "generators": (None, (), ["blockprod", GOLDEN_DUMP, GOLDEN_DUMP, "--k", "0",
                              "--trunc", "2", "--generators", "{path}"]),
    "tree": (corp("tree_sat.tr"), (), ["eval", "{path}", corp("ex01.lind")]),
}
MUTATIONS = 180


@pytest.mark.parametrize("fmt", sorted(PROBED))
def test_a_mutated_file_gives_a_verdict_or_one_error_line(tmp_path, capsys, fmt):
    source, copied, argv = PROBED[fmt]
    text = GENERATORS if source is None else open(source).read()
    for other in copied:
        shutil.copy(corp(other), tmp_path / other)
    path = tmp_path / "mutated"
    argv = [a.format(path=path) for a in argv]
    faults = []
    for seed in range(MUTATIONS):
        path.write_text(mutated(text, random.Random(seed)))
        try:
            code = main(argv)
        except Exception as exc:  # the probe reports what escapes main
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 1) and not (code == 2 and err.startswith("error: ")
                                       and err.count("\n") == 1):
            faults.append((seed, code, err))
    assert faults == []
