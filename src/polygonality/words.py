"""Words in a free group: parsing, cyclic reduction, and length-2 cyclic subwords.

A word over the rank-``n`` free group is a sequence of letters, each a
generator ``a_1 .. a_n`` or an inverse.  The compact text encoding uses
lowercase letters for generators (``a`` = generator 1, ``b`` = 2, ...) and
uppercase for inverses; the explicit token form ``a3`` / ``a3^-1`` addresses
generators beyond rank 26.  Parenthesized subexpressions with integer powers
are expanded literally, e.g. ``a(aB)^2B`` denotes ``aaBaBB``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import PreconditionError, TrivialWordError, WordParseError


@dataclass(frozen=True, order=True)
class Letter:
    """A single letter: generator index (1-based) with a sign (+1 or -1)."""

    gen: int
    sign: int

    def __post_init__(self):
        if self.gen < 1:
            raise WordParseError(f"generator index must be >= 1, got {self.gen}")
        if self.sign not in (1, -1):
            raise WordParseError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def __str__(self) -> str:
        if self.gen <= 26:
            ch = chr(ord("a") + self.gen - 1)
            return ch if self.sign > 0 else ch.upper()
        return f"a{self.gen}" if self.sign > 0 else f"a{self.gen}^-1"


@dataclass(frozen=True)
class Word:
    """An ordered letter sequence, optionally tagged with its list index.

    >>> str(parse_word("abAB", 2))
    'abAB'
    """

    letters: tuple[Letter, ...]
    index: int | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(x) for x in self.letters)

    def max_generator(self) -> int:
        return max((x.gen for x in self.letters), default=0)

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        if not ls:
            return False
        return all(ls[(i + 1) % len(ls)] != ls[i].inverse() for i in range(len(ls)))

    def inverse_letters(self) -> tuple[Letter, ...]:
        return tuple(x.inverse() for x in reversed(self.letters))


@dataclass(frozen=True)
class WordList:
    """A list (duplicates allowed) of cyclically reduced words in rank ``rank``."""

    rank: int
    words: tuple[Word, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise WordParseError(f"rank must be >= 1, got {self.rank}")
        tagged = []
        for j, w in enumerate(self.words):
            if not w.letters:
                raise TrivialWordError(f"word {j} is empty")
            if not w.is_cyclically_reduced():
                raise PreconditionError(f"word {j} ({w}) is not cyclically reduced")
            if w.max_generator() > self.rank:
                raise WordParseError(
                    f"word {j} uses generator {w.max_generator()} beyond rank {self.rank}"
                )
            tagged.append(Word(w.letters, index=j))
        object.__setattr__(self, "words", tuple(tagged))


_TOKEN = re.compile(r"\s*(?:([a-zA-Z])(\d*)|(\()|(\)))")


def _parse_expr(text: str, pos: int, rank: int, depth: int) -> tuple[list[Letter], int]:
    out: list[Letter] = []
    while pos < len(text):
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
            atom, pos = _parse_expr(text, pos, rank, depth + 1)
        else:
            atom = [_letter_from_token(letter, digits, rank)]
        exp, pos = _maybe_power(text, pos)
        out.extend(_apply_power(atom, exp))
    if depth != 0:
        raise WordParseError("unbalanced '('")
    return out, pos


def _maybe_power(text: str, pos: int) -> tuple[int, int]:
    m = re.match(r"\s*\^(-?\d+)", text[pos:])
    if m is None:
        return 1, pos
    return int(m.group(1)), pos + m.end()


def _apply_power(letters: list[Letter], exp: int) -> list[Letter]:
    if exp >= 0:
        return letters * exp
    inv = [x.inverse() for x in reversed(letters)]
    return inv * (-exp)


def _letter_from_token(letter: str, digits: str, rank: int) -> Letter:
    sign = 1 if letter.islower() else -1
    if digits:
        if letter.lower() != "a":
            raise WordParseError(
                f"digit suffix is only valid on 'a'/'A' tokens, got {letter}{digits!r}"
            )
        gen = int(digits)
    else:
        gen = ord(letter.lower()) - ord("a") + 1
    if gen < 1 or gen > rank:
        raise WordParseError(f"generator {letter}{digits} out of rank {rank}")
    return Letter(gen, sign)


def parse_word(text: str, rank: int) -> Word:
    """Parse a word expression into its literal letter sequence (no reduction).

    >>> [str(x) for x in parse_word("abAB", 2).letters]
    ['a', 'b', 'A', 'B']
    >>> str(parse_word("a(aB)^3B^2", 2))
    'aaBaBaBBB'
    """
    if rank < 1:
        raise WordParseError(f"rank must be >= 1, got {rank}")
    letters, _ = _parse_expr(text, 0, rank, 0)
    if not letters:
        raise WordParseError(f"empty word expression {text!r}")
    return Word(tuple(letters))


def cyclic_reduce(word: Word) -> Word:
    """Cyclically reduce a word; the result represents the same conjugacy class.

    Raises :class:`TrivialWordError` when the word reduces to the identity.

    >>> str(cyclic_reduce(parse_word("bab^-1", 2)))
    'a'
    """
    out: list[Letter] = []
    for x in word.letters:
        if out and out[-1] == x.inverse():
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == out[-1].inverse():
        out = out[1:-1]
    if not out:
        raise TrivialWordError(f"word {word} is trivial up to conjugacy")
    return Word(tuple(out), index=word.index)


def length2_cyclic_subwords(word: Word) -> list[tuple[Letter, Letter, int]]:
    """All consecutive letter pairs of a cyclically reduced word, with wraparound.

    Each entry is ``(x_i, x_{i+1}, i)`` for 0-based position ``i``; exactly
    ``len(word)`` pairs are returned.
    """
    if not word.is_cyclically_reduced():
        raise PreconditionError(f"word {word} is not cyclically reduced")
    ls = word.letters
    return [(ls[i], ls[(i + 1) % len(ls)], i) for i in range(len(ls))]


def parse_word_list(text: str) -> WordList:
    """Parse the word-list file format.

    First non-comment line must be ``rank <n>``; each following line holds one
    word expression.  ``#`` starts a comment; blank lines are skipped.
    """
    rank: int | None = None
    words: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if rank is None:
            m = re.fullmatch(r"rank\s+(\d+)", line)
            if m is None:
                raise WordParseError(f"line {lineno}: expected 'rank <n>', got {line!r}")
            rank = int(m.group(1))
            continue
        words.append(cyclic_reduce(parse_word(line, rank)))
    if rank is None:
        raise WordParseError("missing 'rank <n>' header line")
    if not words:
        raise WordParseError("word list is empty")
    return WordList(rank, tuple(words))


def cyclic_rotations(letters: tuple[Letter, ...]):
    for r in range(len(letters)):
        yield letters[r:] + letters[:r]


def match_power(letters: tuple[Letter, ...], base: Word) -> int | None:
    """Exponent ``c`` with ``letters`` a cyclic conjugate of ``base**c``, else None.

    Negative ``c`` means the letters read a power of the inverse word.
    """
    n, l = len(base.letters), len(letters)
    if n == 0 or l == 0 or l % n != 0:
        return None
    c = l // n
    fwd = base.letters * c
    if any(rot == fwd for rot in cyclic_rotations(letters)):
        return c
    bwd = base.inverse_letters() * c
    if any(rot == bwd for rot in cyclic_rotations(letters)):
        return -c
    return None
