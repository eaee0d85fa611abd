"""Words in a free group: parsing, cyclic reduction, and their text.

A word over the rank-``n`` free group is a sequence of letters, each a
generator ``a_1 .. a_n`` or an inverse.  A letter is stored as its code
``2 * (g - 1) + (s < 0)`` for generator ``g`` and sign ``s``, which is also
the index of its vertex in the Whitehead graph, so the inverse of code ``c``
is ``c ^ 1``.  A word is a tuple of codes.  The compact text encoding uses
lowercase letters for generators (``a`` = generator 1, ``b`` = 2, ...) and
uppercase for inverses; the explicit token form ``a3`` / ``a3^-1`` addresses
generators beyond rank 26.  Parenthesized subexpressions with integer powers
are expanded literally, e.g. ``a(aB)^2B`` denotes ``aaBaBB``, up to
:data:`MAX_WORD_LENGTH` letters per word list.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import PreconditionError, TrivialWordError, WordParseError


class WordList(NamedTuple):
    """A list (duplicates allowed) of words in rank ``rank``; word ``j`` is ``words[j]``.

    :func:`make_word_list` checks the words; a list made by hand is checked
    only by the graph constructor, which refuses a loop or a vertex beyond
    the rank.
    """

    rank: int
    words: tuple[tuple[int, ...], ...]


def make_word_list(rank: int, words: Iterable[tuple[int, ...]]) -> WordList:
    """The list of ``words`` in rank ``rank``, each checked to be nonempty,
    cyclically reduced and within the rank."""
    if rank < 1:
        raise WordParseError(f"rank must be >= 1, got {rank}")
    words = tuple(words)
    for j, w in enumerate(words):
        if not w:
            raise TrivialWordError(f"word {j} is empty")
        # no letter is followed, cyclically, by its inverse
        if w[-1] ^ 1 == w[0] or any(x ^ 1 == y for x, y in zip(w, w[1:])):
            raise PreconditionError(f"word {j} ({word_text(w)}) is not cyclically reduced")
        if max(w) >= 2 * rank:
            raise WordParseError(f"word {j} uses generator {max(w) // 2 + 1} beyond rank {rank}")
    return WordList(rank, words)


# the text of the codes of generators 1-26: a, A, b, B, ..., z, Z; and their codes
_COMPACT = [ch for g in range(26) for ch in (chr(ord("a") + g), chr(ord("A") + g))]
_CODE = {ch: c for c, ch in enumerate(_COMPACT)}


def word_text(codes: Iterable[int]) -> str:
    """The text of a word: generators 1-26 as ``a``-``z`` and their inverses
    as ``A``-``Z``; beyond them ``a27`` and ``a27^-1``.

    >>> word_text((0, 3, 52, 53))
    'aBa27a27^-1'
    """
    return "".join([
        _COMPACT[c] if 0 <= c < 52 else f"a{c // 2 + 1}^-1" if c & 1 else f"a{c // 2 + 1}"
        for c in codes
    ])


# all are matched in place at a position, never against a copy of the rest;
# a run of plain letters leaves out a last letter that takes a suffix or a power
_RUN = re.compile(r"\s*([a-zA-Z]+)(?![0-9]|\s*\^)")
_TOKEN = re.compile(r"\s*(?:([a-zA-Z])([0-9]*)|(\()|(\)))")
_POWER = re.compile(r"\s*\^(-?[0-9]+)")

#: The most letters a word list expands to in all; checked before a power is expanded.
MAX_WORD_LENGTH = 1_000_000


def _parse_expr(
    text: str, pos: int, rank: int, depth: int, room: int
) -> tuple[list[int], int]:
    """The letter codes of the expression at ``pos``, at most ``room`` of them.

    ``room`` is the cap less the letters the enclosing groups already hold, so
    the lists alive at once never exceed the cap; a group is held while it is
    built, so it counts against the cap even under the power 0.
    """
    out: list[int] = []
    while pos < len(text):
        m = _RUN.match(text, pos)
        if m is not None:
            run = m.group(1)
            codes = [_CODE[ch] for ch in run]
            fits = room - len(out)
            if len(codes) > fits or max(codes) >= 2 * rank:
                # the first fault, as reading the letters one at a time finds
                # it; the letter past the room is the one past the cap
                for k, ch in enumerate(run):
                    _letter_from_token(ch, "", rank)
                    if k == fits:
                        raise _over_cap(MAX_WORD_LENGTH + 1)
            out += codes
            pos = m.end()
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            if not text[pos:].strip():
                break
            raise WordParseError(f"unexpected symbol at column {pos}: {text[pos:][:10]!r}")
        pos = m.end()
        letter, digits, lparen, rparen = m.groups()
        if rparen:
            if depth == 0:
                raise WordParseError("unbalanced ')'")
            return out, pos
        if lparen:
            atom, pos = _parse_expr(text, pos, rank, depth + 1, room - len(out))
        else:
            atom = [_letter_from_token(letter, digits, rank)]
        exp, pos = _maybe_power(text, pos)
        if len(out) + len(atom) * abs(exp) > room:
            raise _over_cap(MAX_WORD_LENGTH - room + len(out) + len(atom) * abs(exp))
        out.extend(_apply_power(atom, exp))
    if depth != 0:
        raise WordParseError("unbalanced '('")
    return out, pos


def _over_cap(length: int) -> WordParseError:
    return WordParseError(
        f"word expands to at least {length} letters, over the cap of {MAX_WORD_LENGTH}"
    )


def _maybe_power(text: str, pos: int) -> tuple[int, int]:
    m = _POWER.match(text, pos)
    if m is None:
        return 1, pos
    return int(m.group(1)), m.end()


def _apply_power(letters: list[int], exp: int) -> list[int]:
    if exp >= 0:
        return letters * exp
    return [x ^ 1 for x in reversed(letters)] * -exp


def _letter_from_token(letter: str, digits: str, rank: int) -> int:
    if not digits:
        code = _CODE[letter]
    elif letter in "aA":
        code = 2 * (int(digits) - 1) + (letter == "A")
    else:
        raise WordParseError(
            f"digit suffix is only valid on 'a'/'A' tokens, got {letter}{digits!r}"
        )
    if not 0 <= code < 2 * rank:
        raise WordParseError(f"generator {letter}{digits} out of rank {rank}")
    return code


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Parse a word expression into its literal letter codes (no reduction).

    >>> parse_word("abAB", 2)
    (0, 2, 1, 3)
    >>> word_text(parse_word("a(aB)^3B^2", 2))
    'aaBaBaBBB'
    """
    return _parse_word(text, rank, MAX_WORD_LENGTH)


def _parse_word(text: str, rank: int, room: int) -> tuple[int, ...]:
    """:func:`parse_word` with at most ``room`` letters: the cap less the
    letters the words before it in a list hold."""
    if rank < 1:
        raise WordParseError(f"rank must be >= 1, got {rank}")
    try:
        letters, _ = _parse_expr(text, 0, rank, 0, room)
    except RecursionError:
        raise WordParseError("parentheses nested too deeply") from None
    except ValueError:  # int() refuses a digit string past sys.get_int_max_str_digits()
        raise WordParseError("a number in the word has too many digits") from None
    if not letters:
        raise WordParseError(f"empty word expression {text!r}")
    return tuple(letters)


def cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    """Cyclically reduce a word; the result represents the same conjugacy class.

    Raises :class:`TrivialWordError` when the word reduces to the identity.

    >>> word_text(cyclic_reduce(parse_word("bab^-1", 2)))
    'a'
    """
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    # the stripped ends are counted by two indices and sliced off once: linear
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i, j = i + 1, j - 1
    if i > j:
        raise TrivialWordError(f"word {word_text(word)} is trivial up to conjugacy")
    return tuple(out[i : j + 1])


def parse_word_list(text: str) -> WordList:
    """Parse the word-list file format.

    First non-comment line must be ``rank <n>``; each following line holds one
    word expression.  ``#`` starts a comment; blank lines are skipped.  The
    words share one budget of :data:`MAX_WORD_LENGTH` letters: each line is
    expanded in the room the reduced words before it leave.
    """
    rank: int | None = None
    words: list[tuple[int, ...]] = []
    held = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if rank is None:
            m = re.fullmatch(r"rank\s+([0-9]+)", line)
            if m is None:
                raise WordParseError(f"line {lineno}: expected 'rank <n>', got {line!r}")
            try:
                rank = int(m.group(1))
            except ValueError:  # past sys.get_int_max_str_digits(), as in _parse_word
                raise WordParseError(f"line {lineno}: the rank has too many digits") from None
            continue
        try:
            words.append(cyclic_reduce(_parse_word(line, rank, MAX_WORD_LENGTH - held)))
        except (WordParseError, TrivialWordError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        held += len(words[-1])
    if rank is None:
        raise WordParseError("missing 'rank <n>' header line")
    if not words:
        raise WordParseError("word list is empty")
    return make_word_list(rank, words)


def match_power(letters: tuple[int, ...], base: tuple[int, ...]) -> int | None:
    """Exponent ``c`` with ``letters`` a cyclic conjugate of ``base**c``, else None.

    Negative ``c`` means the letters read a power of the inverse word.  Each
    code is compared as one character, so codes stay below 1,114,112, far
    above the codes of any graph's rank and so of any surface link.
    """
    n, l = len(base), len(letters)
    if n == 0 or l == 0 or l % n != 0:
        return None
    c = l // n
    # one character per letter; the conjugates of a word of length l are the
    # length-l substrings of the word read twice, found by one string search
    doubled = _chars(letters) * 2
    for exponent, word in ((c, base), (-c, [x ^ 1 for x in reversed(base)])):
        if _chars(word) * c in doubled:
            return exponent
    return None


def _chars(codes) -> str:
    return "".join(map(chr, codes))
