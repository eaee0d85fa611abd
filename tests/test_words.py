import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import polygonality as pg
from polygonality import words
from polygonality.errors import GraphError, TrivialWordError, WordParseError
from polygonality.words import match_power, word_text

from conftest import oracle_match_power, oracle_parse_expr, oracle_word_text


def inverse(word):
    return tuple(x ^ 1 for x in reversed(word))


def test_parse_compact():
    assert pg.parse_word("abAB", 2) == (0, 2, 1, 3)
    assert [word_text((x,)) for x in pg.parse_word("abAB", 2)] == ["a", "b", "A", "B"]


def test_parse_single_letter_rank_one():
    assert pg.parse_word("a", 1) == (0,)


def test_parse_out_of_rank():
    with pytest.raises(WordParseError):
        pg.parse_word("abc", 2)


def test_parse_no_reduction():
    assert word_text(pg.parse_word("aA", 2)) == "aA"


def test_parse_powers_and_groups():
    assert word_text(pg.parse_word("a(aB)^3B^2", 2)) == "aaBaBaBBB"
    assert word_text(pg.parse_word("(ab)^-2", 2)) == "BABA"
    assert word_text(pg.parse_word("b^-2", 2)) == "BB"


def test_parse_explicit_tokens():
    assert pg.parse_word("a3 a1^-1 A3", 3) == (4, 1, 5)


def test_parse_explicit_rejects_non_a_digits():
    with pytest.raises(WordParseError):
        pg.parse_word("b2", 3)


def test_parse_empty():
    with pytest.raises(WordParseError):
        pg.parse_word("", 2)
    with pytest.raises(WordParseError):
        pg.parse_word("a^0", 2)


def test_cyclic_reduce_conjugation_collapse():
    assert word_text(pg.cyclic_reduce(pg.parse_word("baB", 2))) == "a"


def test_cyclic_reduce_fixed_point():
    w = pg.parse_word("abab^2ab^3", 2)
    assert pg.cyclic_reduce(w) == w


def test_cyclic_reduce_trivial():
    with pytest.raises(TrivialWordError):
        pg.cyclic_reduce(pg.parse_word("aA", 2))


def subwords(rank, *words):
    """The length-2 cyclic subwords read back from the graph's edges, with
    their edge ids: the edge of ``xy`` joins the vertices of ``x`` and
    ``y^-1``, and a letter's code is its vertex's index."""
    graph = pg.build_whitehead_graph(pg.WordList(rank, words))
    return [(word_text((x,)), word_text((y ^ 1,)), eid) for eid, (x, y) in graph.edges.items()]


def test_length2_subwords_hand_enumeration():
    w = pg.parse_word("aB a a b".replace(" ", ""), 2)  # ab^-1 a^2 b
    assert subwords(2, w) == [
        ("a", "B", 0),
        ("B", "a", 1),
        ("a", "a", 2),
        ("a", "b", 3),
        ("b", "a", 4),
    ]


def test_length2_subwords_wraparound():
    assert len(subwords(1, pg.parse_word("a^2", 1))) == 2


def test_length2_subwords_commutator():
    pairs = [(x, y) for x, y, _ in subwords(2, pg.parse_word("abAB", 2))]
    assert pairs == [("a", "b"), ("b", "A"), ("A", "B"), ("B", "a")]


def test_length2_requires_cyclically_reduced():
    # a hand-made list is not checked: the graph refuses the loop of the
    # subword Aa, and a generator beyond the rank
    with pytest.raises(GraphError, match="edge 2 is a loop at a1"):
        subwords(2, pg.parse_word("abA", 2))
    with pytest.raises(GraphError, match=r"edge 0 end index 3 is outside range\(2\)"):
        subwords(1, pg.parse_word("ab", 2))


def _occurrences(wl):
    # deg(a_g) = deg(a_g^-1) = the number of occurrences of g, signs combined
    graph = pg.build_whitehead_graph(wl)
    counts = {g: graph.degree(pg.VertexId(g, 1)) for g in range(1, wl.rank + 1)}
    assert counts == {g: graph.degree(pg.VertexId(g, -1)) for g in counts}
    return counts, pg.analyze(graph).regular_k


def test_regularity_profile_commutator():
    wl = pg.parse_word_list("rank 2\nabAB\n")
    assert _occurrences(wl) == ({1: 2, 2: 2}, 2)


def test_regularity_profile_irregular():
    wl = pg.parse_word_list("rank 2\nabab^2ab^3\n")
    assert _occurrences(wl) == ({1: 3, 2: 6}, None)


def test_regularity_profile_absent_generator():
    wl = pg.parse_word_list("rank 2\na^2\n")
    assert _occurrences(wl) == ({1: 2, 2: 0}, None)


def test_word_list_format_comments_and_errors():
    wl = pg.parse_word_list("# header\nrank 2\nabAB  # the commutator\n\naB\n")
    assert wl.words == ((0, 2, 1, 3), (0, 3))
    with pytest.raises(WordParseError):
        pg.parse_word_list("abAB\n")


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("ab(", WordParseError, "unbalanced '('"),
        ("abc", WordParseError, "generator c out of rank 2"),
        ("aBbA", TrivialWordError, "word aBbA is trivial up to conjugacy"),
    ],
    ids=["parse", "rank", "trivial"],
)
def test_an_error_in_a_word_line_names_the_line(line, error, message):
    # the header's errors already named their line; a word line's keep their type
    with pytest.raises(error) as exc:
        pg.parse_word_list(f"rank 2\nab\n{line}\n")
    assert type(exc.value) is error
    assert str(exc.value) == f"line 3: {message}"


letter_st = st.integers(0, 5)  # the letter codes of rank 3
word_st = st.lists(letter_st, min_size=1, max_size=12).map(tuple)


@given(word_st)
def test_cyclic_reduce_idempotent(w):
    try:
        once = pg.cyclic_reduce(w)
    except TrivialWordError:
        return
    assert pg.cyclic_reduce(once) == once


@given(word_st)
def test_subword_count_equals_length(w):
    try:
        red = pg.cyclic_reduce(w)
    except TrivialWordError:
        return
    assert len(subwords(3, red)) == len(red)


@given(st.lists(word_st, min_size=1, max_size=4))
@settings(deadline=None)
def test_profile_total_is_letter_count(ws):
    reduced = []
    for w in ws:
        try:
            reduced.append(pg.cyclic_reduce(w))
        except TrivialWordError:
            pass
    if not reduced:
        return
    wl = pg.make_word_list(3, reduced)
    assert sum(_occurrences(wl)[0].values()) == sum(len(w) for w in wl.words)


@given(st.integers(0, 1), st.lists(word_st, min_size=1, max_size=4))
@example(0, [pg.parse_word("abAB", 2)])
@example(0, [pg.parse_word("abab^2ab^3", 2)])
@example(1, [pg.parse_word("a^2", 2)])
@settings(deadline=None)
def test_regular_k_is_common_occurrence_count(extra_rank, ws):
    # deg(a_g) = deg(a_g^-1) = the number of occurrences of g, signs combined
    reduced = []
    for w in ws:
        try:
            reduced.append(pg.cyclic_reduce(w))
        except TrivialWordError:
            pass
    if not reduced:
        return
    wl = pg.make_word_list(max(max(w) // 2 + 1 for w in reduced) + extra_rank, reduced)
    counts = Counter(x // 2 + 1 for w in wl.words for x in w)
    occurrences = {counts[g] for g in range(1, wl.rank + 1)}
    expected = occurrences.pop() if len(occurrences) == 1 else None
    assert pg.analyze(pg.build_whitehead_graph(wl)).regular_k == expected


def test_match_power():
    base = pg.cyclic_reduce(pg.parse_word("abAB", 2))
    twice = pg.parse_word("abABabAB", 2)
    rotated = twice[3:] + twice[:3]
    assert match_power(rotated, base) == 2
    inv = pg.parse_word("(abAB)^-1", 2)
    assert match_power(inv, base) == -1
    assert match_power(pg.parse_word("aab", 2), base) is None


@given(
    word_st,
    st.integers(1, 4),
    st.integers(0, 60),
    st.booleans(),
    st.lists(letter_st, min_size=1, max_size=16).map(tuple),
)
@settings(max_examples=300, deadline=None)
@example(pg.parse_word("ab", 2), 3, 4, False, pg.parse_word("abab", 2))
def test_match_power_tries_enough_rotations(base, c, r, invert, other):
    power = (inverse(base) if invert else base) * c
    rotated = power[r % len(power) :] + power[: r % len(power)]
    # a power, a rotation of it, the same with one letter flipped, and arbitrary letters
    flipped = (rotated[0] ^ 1, *rotated[1:])
    for candidate in (power, rotated, flipped, other):
        assert match_power(candidate, base) == oracle_match_power(candidate, base)
    assert abs(match_power(rotated, base)) == c


@given(
    st.lists(letter_st, min_size=8, max_size=20).map(tuple),
    st.integers(5, 12),
    st.integers(0, 10**6),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_match_power_with_large_exponents_of_long_bases(base, c, r, invert):
    # the search runs over the link once, not once per rotation
    power = (inverse(base) if invert else base) * c
    rotated = power[r % len(power) :] + power[: r % len(power)]
    flipped = (*rotated[:-1], rotated[-1] ^ 1)
    for candidate in (rotated, flipped):
        assert match_power(candidate, base) == oracle_match_power(candidate, base)
    assert abs(match_power(rotated, base)) == c


def free_reduce(pairs):
    """Cyclic reduction by brute force on ``(generator, sign)`` pairs: cancel
    an adjacent inverse pair while there is one, else the last letter against
    the first, and start over."""
    out = list(pairs)

    def inverse_pair(x, y):
        return x[0] == y[0] and x[1] == -y[1]

    while True:
        i = next((i for i in range(len(out) - 1) if inverse_pair(out[i], out[i + 1])), None)
        if i is not None:
            del out[i : i + 2]
        elif len(out) > 1 and inverse_pair(out[-1], out[0]):
            del out[-1], out[0]
        else:
            return out


@st.composite
def ranked_words(draw):
    """A rank from 1 to 30, so that generators past 26 are drawn, and a word
    of that rank as ``(generator, sign)`` pairs."""
    rank = draw(st.integers(1, 30))
    letter = st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))
    return rank, draw(st.lists(letter, min_size=1, max_size=16))


@given(ranked_words(), st.integers(1, 3), st.integers(0, 50))
@settings(max_examples=300, deadline=None)
@example((28, [(27, 1), (28, 1), (27, -1), (28, -1)]), 2, 3)
def test_word_text_parse_and_reduction_agree_with_the_oracles(case, c, r):
    rank, pairs = case
    w = tuple(pg.VertexId(g, s).index for g, s in pairs)
    assert word_text(w) == oracle_word_text(pairs)
    assert pg.parse_word(word_text(w), rank) == w
    reduced = free_reduce(pairs)
    if not reduced:
        with pytest.raises(TrivialWordError):
            pg.cyclic_reduce(w)
        return
    base = pg.cyclic_reduce(w)
    assert base == tuple(pg.VertexId(g, s).index for g, s in reduced)
    power = base * c
    rotated = power[r % len(power) :] + power[: r % len(power)]
    for candidate in (w, rotated, inverse(rotated)):
        assert match_power(candidate, base) == oracle_match_power(candidate, base)


@pytest.mark.parametrize(
    "text, length",
    [
        ("a^11", 11),
        ("a^5b^6", 11),
        ("(a^3)^-4", 12),
        ("a^4(ba^3)^2", 12),
        ("(ab)^-6", 12),
        ("a^4(b(a^6))", 11),  # inside a group, the letters before it count too
    ],
)
def test_power_past_the_cap_is_refused_before_it_is_built(monkeypatch, text, length):
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 10)
    built = []
    expand = words._apply_power

    def recorded(letters, exp):
        built.append(len(letters) * abs(exp))
        return expand(letters, exp)

    monkeypatch.setattr(words, "_apply_power", recorded)
    expected = f"word expands to at least {length} letters, over the cap of 10"
    with pytest.raises(WordParseError, match=re.escape(expected)):
        pg.parse_word(text, 2)
    assert sum(built) <= 10  # the power that crosses the cap is never expanded


@pytest.mark.parametrize("text", ["a^10", "a^4b^6", "(ab)^-5", "(a^3)^3a"])
def test_power_up_to_the_cap_is_expanded(monkeypatch, text):
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 10)
    assert len(pg.parse_word(text, 2)) <= 10


@pytest.mark.parametrize(
    "text, length",
    [("rank 1\na^9\na^9\n", 18), ("rank 1\na^9\na^9\na^9\na^9\n", 18), ("rank 2\nab^4\nb^6\n", 11)],
)
def test_the_cap_bounds_the_whole_word_list(monkeypatch, text, length):
    # each line once had the whole cap: four lines of a^9 loaded 36 letters
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 10)
    expected = f"word expands to at least {length} letters, over the cap of 10"
    with pytest.raises(WordParseError, match=re.escape(expected)):
        pg.parse_word_list(text)


def test_a_word_list_up_to_the_cap_is_read(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 10)
    assert [len(w) for w in pg.parse_word_list("rank 1\na^5\na^5\n").words] == [5, 5]
    # the budget counts the reduced words a list holds, not their expansions
    assert [len(w) for w in pg.parse_word_list("rank 2\nba^2B\na^8\n").words] == [2, 8]


@pytest.mark.parametrize("text", ["a^" + "9" * 5000, "a" + "9" * 5000])
def test_number_past_the_int_digit_limit_is_a_parse_error(text):
    with pytest.raises(WordParseError, match="too many digits"):
        pg.parse_word(text, 2)


def test_cyclic_reduce_strips_a_long_conjugate():
    # each stripped pair once cost a copy of the whole rest: minutes for this word
    word = pg.parse_word("a^300000bA^300000", 2)
    start = time.perf_counter()
    assert word_text(pg.cyclic_reduce(word)) == "b"
    assert time.perf_counter() - start < 30


@st.composite
def expressions(draw, depth=0):
    """A word expression with groups, powers and spacing, and its letters."""
    text, letters = "", []
    for _ in range(draw(st.integers(1, 3))):
        if depth < 2 and draw(st.booleans()):
            inner, atom = draw(expressions(depth + 1))
            inner = f"({inner})"
        else:
            atom = [draw(letter_st)]
            x = atom[0]
            inner = draw(st.sampled_from([word_text(atom), f"{'A' if x & 1 else 'a'}{x // 2 + 1}"]))
        if draw(st.booleans()):
            exp = draw(st.integers(-3, 3))
            inner += draw(st.sampled_from(["", " "])) + f"^{exp}"
            atom = atom * exp if exp >= 0 else list(inverse(atom)) * -exp
        text += draw(st.sampled_from(["", " "])) + inner
        letters += atom
    return text, letters


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_power_expressions_expand_to_their_letters(case):
    text, letters = case
    if letters:
        assert pg.parse_word(text, 3) == tuple(letters)
    else:
        with pytest.raises(WordParseError, match="empty word expression"):
            pg.parse_word(text, 3)


class CopyCountingText(str):
    """A text that counts the characters its slices copy."""

    copied = 0

    def __getitem__(self, key):
        part = str.__getitem__(self, key)
        if isinstance(key, slice):
            self.copied += len(part)
        return part


def test_a_long_literal_word_is_read_in_place():
    # matching a token or a power against a copy of the rest of the text
    # would copy about n^2 / 2 characters here
    text = CopyCountingText("ab" * 20000 + "^2 a(Ba)^-1")
    word = pg.parse_word(text, 2)
    assert len(word) == 40000 + 1 + 1 + 2 and word_text(word).endswith("abbaAb")
    assert text.copied <= len(text)


# pieces of word expressions: runs of plain letters, suffixed tokens, powers,
# groups, whitespace and symbols the grammar refuses
EXPRESSION_PIECES = st.text("abczABCZ", min_size=1, max_size=6) | st.sampled_from([
    "a27", "A3", "a1", "a0", "b5", "z12",
    "^2", "^-3", "^0", " ^1", "^12", "^", "^x", "^-",
    "(", ")", " ", "\t", "\u00a0", "\n",
    "#", "*", "1", "\u0663", "a\u0663", "é",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(EXPRESSION_PIECES, max_size=12).map("".join), st.integers(1, 30), st.integers(0, 40))
def test_runs_of_plain_letters_parse_as_one_token_at_a_time(text, rank, room):
    def outcome(parse):
        try:
            return parse(text, 0, rank, 0, room)
        except WordParseError as exc:
            return str(exc)

    assert outcome(words._parse_expr) == outcome(oracle_parse_expr)
