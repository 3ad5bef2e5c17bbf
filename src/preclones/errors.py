"""Exception types, and ``read_lines``, the one reader of the package's
line-based text: automaton files, preclone dumps, formula-file headers,
alphabet files and blockprod generator files.
"""


class PrecloneError(Exception):
    """Base class for all library errors."""


class ParseError(PrecloneError):
    """Malformed tree, automaton, formula or dump text."""


def read_lines(text, usage, handle, once=(), label="line"):
    """Hand each line of ``text`` to ``handle(lineno, keyword, values)``.

    Blank lines and ``#`` comments are skipped.  ``usage`` maps each
    keyword to its values, such as ``"<name> <path>"``, where a word with
    ``...`` stands for any number; None hands every first word over
    unchecked.  A keyword in ``once`` heads one line only.  A ValueError,
    IndexError or ParseError in a line becomes ParseError "<label> N: ...".
    """
    shapes = {kw: (len(words.split()), "..." in words) for kw, words in (usage or {}).items()}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        keyword, *values = line.split() or ["#"]
        if keyword.startswith("#"):
            continue
        try:
            if usage is not None:
                if keyword not in shapes:
                    raise ParseError(f"unknown keyword {keyword!r}")
                n, variadic = shapes[keyword]
                if not (len(values) == n or variadic and len(values) >= n - 1):
                    raise ParseError(f"expected '{keyword} {usage[keyword]}'")
            if keyword in seen and keyword in once:
                raise ParseError(f"a second {keyword} line")
            seen.add(keyword)
            handle(lineno, keyword, values)
        except (ValueError, IndexError, ParseError) as exc:
            raise ParseError(f"{label} {lineno}: {exc}") from None


def natural(what, word):
    """``word`` as a non-negative integer; ``what`` names it in the error."""
    if not word.isdecimal():
        raise ParseError(f"{what} {word!r} is not a non-negative integer")
    return int(word)


class RankOverflow(PrecloneError):
    """A composition would produce an element above the truncation bound."""


class BudgetExceeded(PrecloneError):
    """A closure computation grew past its element budget."""


class NotACongruence(PrecloneError):
    """A partition is not stable under composition.

    Carries a witnessing composition in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DeterminismViolation(PrecloneError):
    """A quantifier family failed to assign exactly one letter to a node.

    ``node`` is the offending node id, ``satisfied`` the set of letters
    whose formulas held there.
    """

    def __init__(self, message, node=None, satisfied=None):
        super().__init__(message)
        self.node = node
        self.satisfied = satisfied
