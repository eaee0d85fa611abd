"""Words in a free group: parsing, cyclic reduction, and length-2 cyclic subwords.

A word over the rank-``n`` free group is a sequence of letters, each a
generator ``a_1 .. a_n`` or an inverse.  The compact text encoding uses
lowercase letters for generators (``a`` = generator 1, ``b`` = 2, ...) and
uppercase for inverses; the explicit token form ``a3`` / ``a3^-1`` addresses
generators beyond rank 26.  Parenthesized subexpressions with integer powers
are expanded literally, e.g. ``a(aB)^2B`` denotes ``aaBaBB``, up to
:data:`MAX_WORD_LENGTH` letters per word list.
"""

from __future__ import annotations

import re

from .errors import PreconditionError, TrivialWordError, WordParseError
from .frozen import Frozen


class Letter(Frozen):
    """A single letter: generator index (1-based) with a sign (+1 or -1).

    Letters are ordered by ``(gen, sign)``.
    """

    __slots__ = ("gen", "sign")

    def __init__(self, gen: int, sign: int):
        if gen < 1:
            raise WordParseError(f"generator index must be >= 1, got {gen}")
        if sign not in (1, -1):
            raise WordParseError(f"letter sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "sign", sign)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.gen == other.gen and self.sign == other.sign
        return NotImplemented

    def __hash__(self):
        return hash((self.gen, self.sign))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.gen, self.sign) < (other.gen, other.sign)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.gen, self.sign) <= (other.gen, other.sign)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.gen, self.sign) > (other.gen, other.sign)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.gen, self.sign) >= (other.gen, other.sign)
        return NotImplemented

    def inverse(self) -> "Letter":
        return shared_letter(self.gen, -self.sign)

    def __str__(self) -> str:
        if self.gen <= 26:
            ch = chr(ord("a") + self.gen - 1)
            return ch if self.sign > 0 else ch.upper()
        return f"a{self.gen}" if self.sign > 0 else f"a{self.gen}^-1"


# one letter per (generator, sign), and its text, for every parsed word and surface link
_SHARED: dict[tuple[int, int], Letter] = {}
_TEXT: dict[tuple[int, int], str] = {}


def shared_letter(gen: int, sign: int) -> Letter:
    """The one :class:`Letter` of ``gen`` and ``sign`` that words share.

    The parser, :meth:`Letter.inverse` and a surface's link walk all take
    their letters from here, so letter tuples that read the same word hold
    the same objects and compare equal by identity, with no
    :meth:`Letter.__eq__` call.
    """
    x = _SHARED.get((gen, sign))
    if x is None:
        x = _SHARED[gen, sign] = Letter(gen, sign)
        _TEXT[gen, sign] = str(x)
    return x


class Word(Frozen):
    """An ordered letter sequence, optionally tagged with its list index.

    Only the letters take part in equality and hashing.

    >>> str(parse_word("abAB", 2))
    'abAB'
    """

    __slots__ = ("letters", "index")

    def __init__(self, letters: tuple[Letter, ...], index: int | None = None):
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        # each letter's text is looked up by its fields, with no method call
        text = _TEXT
        return "".join([text.get((x.gen, x.sign)) or str(x) for x in self.letters])

    def max_generator(self) -> int:
        return max((x.gen for x in self.letters), default=0)

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        if not ls:
            return False
        # no letter is followed, cyclically, by its inverse
        return all(x.gen != y.gen or x.sign == y.sign for x, y in zip(ls, ls[1:] + ls[:1]))

    def inverse_letters(self) -> tuple[Letter, ...]:
        return tuple(x.inverse() for x in reversed(self.letters))


class WordList(Frozen):
    """A list (duplicates allowed) of cyclically reduced words in rank ``rank``.

    Each word is stored tagged with its position in the list.
    """

    __slots__ = ("rank", "words")

    def __init__(self, rank: int, words: tuple[Word, ...]):
        if rank < 1:
            raise WordParseError(f"rank must be >= 1, got {rank}")
        tagged = []
        for j, w in enumerate(words):
            if not w.letters:
                raise TrivialWordError(f"word {j} is empty")
            if not w.is_cyclically_reduced():
                raise PreconditionError(f"word {j} ({w}) is not cyclically reduced")
            if w.max_generator() > rank:
                raise WordParseError(
                    f"word {j} uses generator {w.max_generator()} beyond rank {rank}"
                )
            tagged.append(Word(w.letters, index=j))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "words", tuple(tagged))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rank == other.rank and self.words == other.words
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, self.words))


# both are matched in place at a position, never against a copy of the rest
_TOKEN = re.compile(r"\s*(?:([a-zA-Z])([0-9]*)|(\()|(\)))")
_POWER = re.compile(r"\s*\^(-?[0-9]+)")

#: The most letters a word list expands to in all; checked before a power is expanded.
MAX_WORD_LENGTH = 1_000_000


def _parse_expr(
    text: str, pos: int, rank: int, depth: int, room: int
) -> tuple[list[Letter], int]:
    """Letters of the expression at ``pos``, at most ``room`` of them.

    ``room`` is the cap less the letters the enclosing groups already hold, so
    the lists alive at once never exceed the cap; a group is held while it is
    built, so it counts against the cap even under the power 0.
    """
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
            atom, pos = _parse_expr(text, pos, rank, depth + 1, room - len(out))
        else:
            atom = [_letter_from_token(letter, digits, rank)]
        exp, pos = _maybe_power(text, pos)
        if len(out) + len(atom) * abs(exp) > room:
            length = MAX_WORD_LENGTH - room + len(out) + len(atom) * abs(exp)
            raise WordParseError(
                f"word expands to at least {length} letters, over the cap of {MAX_WORD_LENGTH}"
            )
        out.extend(_apply_power(atom, exp))
    if depth != 0:
        raise WordParseError("unbalanced '('")
    return out, pos


def _maybe_power(text: str, pos: int) -> tuple[int, int]:
    m = _POWER.match(text, pos)
    if m is None:
        return 1, pos
    return int(m.group(1)), m.end()


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
    return shared_letter(gen, sign)


def parse_word(text: str, rank: int) -> Word:
    """Parse a word expression into its literal letter sequence (no reduction).

    >>> [str(x) for x in parse_word("abAB", 2).letters]
    ['a', 'b', 'A', 'B']
    >>> str(parse_word("a(aB)^3B^2", 2))
    'aaBaBaBBB'
    """
    return _parse_word(text, rank, MAX_WORD_LENGTH)


def _parse_word(text: str, rank: int, room: int) -> Word:
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
    return Word(tuple(letters))


def cyclic_reduce(word: Word) -> Word:
    """Cyclically reduce a word; the result represents the same conjugacy class.

    Raises :class:`TrivialWordError` when the word reduces to the identity.

    >>> str(cyclic_reduce(parse_word("bab^-1", 2)))
    'a'
    """
    # letters are compared by their fields, so no inverse letter is built
    out: list[Letter] = []
    for x in word.letters:
        if out and out[-1].gen == x.gen and out[-1].sign == -x.sign:
            out.pop()
        else:
            out.append(x)
    # the stripped ends are counted by two indices and sliced off once: linear
    i, j = 0, len(out) - 1
    while i < j and out[i].gen == out[j].gen and out[i].sign == -out[j].sign:
        i, j = i + 1, j - 1
    if i > j:
        raise TrivialWordError(f"word {word} is trivial up to conjugacy")
    return Word(tuple(out[i : j + 1]), index=word.index)


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
    word expression.  ``#`` starts a comment; blank lines are skipped.  The
    words share one budget of :data:`MAX_WORD_LENGTH` letters: each line is
    expanded in the room the reduced words before it leave.
    """
    rank: int | None = None
    words: list[Word] = []
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
        words.append(cyclic_reduce(_parse_word(line, rank, MAX_WORD_LENGTH - held)))
        held += len(words[-1])
    if rank is None:
        raise WordParseError("missing 'rank <n>' header line")
    if not words:
        raise WordParseError("word list is empty")
    return WordList(rank, tuple(words))


def match_power(letters: tuple[Letter, ...], base: Word) -> int | None:
    """Exponent ``c`` with ``letters`` a cyclic conjugate of ``base**c``, else None.

    Negative ``c`` means the letters read a power of the inverse word.  Each
    letter is compared as one character, so generators stay below 557,056, far
    above the rank cap of a graph and so of any surface link.
    """
    n, l = len(base.letters), len(letters)
    if n == 0 or l == 0 or l % n != 0:
        return None
    c = l // n
    # one character per letter; the conjugates of a word of length l are the
    # length-l substrings of the word read twice, found by one string search
    doubled = _chars(letters) * 2
    for exponent, word in ((c, base.letters), (-c, base.inverse_letters())):
        if _chars(word) * c in doubled:
            return exponent
    return None


def _chars(letters) -> str:
    return "".join([chr(2 * x.gen + (x.sign < 0)) for x in letters])
