from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import polygonality as pg
from polygonality.errors import PreconditionError, TrivialWordError, WordParseError
from polygonality.words import Letter, Word, match_power


def letters(text, rank=2):
    return pg.parse_word(text, rank).letters


def test_parse_compact():
    assert [str(x) for x in letters("abAB")] == ["a", "b", "A", "B"]


def test_parse_single_letter_rank_one():
    assert letters("a", rank=1) == (Letter(1, 1),)


def test_parse_out_of_rank():
    with pytest.raises(WordParseError):
        pg.parse_word("abc", 2)


def test_parse_no_reduction():
    assert str(pg.parse_word("aA", 2)) == "aA"


def test_parse_powers_and_groups():
    assert str(pg.parse_word("a(aB)^3B^2", 2)) == "aaBaBaBBB"
    assert str(pg.parse_word("(ab)^-2", 2)) == "BABA"
    assert str(pg.parse_word("b^-2", 2)) == "BB"


def test_parse_explicit_tokens():
    w = pg.parse_word("a3 a1^-1 A3", 3)
    assert w.letters == (Letter(3, 1), Letter(1, -1), Letter(3, -1))


def test_parse_explicit_rejects_non_a_digits():
    with pytest.raises(WordParseError):
        pg.parse_word("b2", 3)


def test_parse_empty():
    with pytest.raises(WordParseError):
        pg.parse_word("", 2)
    with pytest.raises(WordParseError):
        pg.parse_word("a^0", 2)


def test_cyclic_reduce_conjugation_collapse():
    assert str(pg.cyclic_reduce(pg.parse_word("baB", 2))) == "a"


def test_cyclic_reduce_fixed_point():
    w = pg.parse_word("abab^2ab^3", 2)
    assert pg.cyclic_reduce(w).letters == w.letters


def test_cyclic_reduce_trivial():
    with pytest.raises(TrivialWordError):
        pg.cyclic_reduce(pg.parse_word("aA", 2))


def test_length2_subwords_hand_enumeration():
    w = pg.parse_word("aB a a b".replace(" ", ""), 2)  # ab^-1 a^2 b
    pairs = [(str(x), str(y), i) for x, y, i in pg.length2_cyclic_subwords(w)]
    assert pairs == [
        ("a", "B", 0),
        ("B", "a", 1),
        ("a", "a", 2),
        ("a", "b", 3),
        ("b", "a", 4),
    ]


def test_length2_subwords_wraparound():
    w = pg.parse_word("a^2", 1)
    assert len(pg.length2_cyclic_subwords(w)) == 2


def test_length2_subwords_commutator():
    w = pg.parse_word("abAB", 2)
    pairs = [(str(x), str(y)) for x, y, _ in pg.length2_cyclic_subwords(w)]
    assert pairs == [("a", "b"), ("b", "A"), ("A", "B"), ("B", "a")]


def test_length2_requires_cyclically_reduced():
    with pytest.raises(PreconditionError):
        pg.length2_cyclic_subwords(pg.parse_word("abA", 2))


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
    assert len(wl.words) == 2 and wl.words[1].index == 1
    with pytest.raises(WordParseError):
        pg.parse_word_list("abAB\n")


letter_st = st.builds(Letter, st.integers(1, 3), st.sampled_from((1, -1)))
word_st = st.lists(letter_st, min_size=1, max_size=12).map(tuple).map(Word)


@given(word_st)
def test_cyclic_reduce_idempotent(w):
    try:
        once = pg.cyclic_reduce(w)
    except TrivialWordError:
        return
    assert pg.cyclic_reduce(once).letters == once.letters


@given(word_st)
def test_subword_count_equals_length(w):
    try:
        red = pg.cyclic_reduce(w)
    except TrivialWordError:
        return
    assert len(pg.length2_cyclic_subwords(red)) == len(red)


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
    wl = pg.WordList(3, tuple(reduced))
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
    wl = pg.WordList(max(w.max_generator() for w in reduced) + extra_rank, tuple(reduced))
    counts = Counter(x.gen for w in wl.words for x in w.letters)
    occurrences = {counts[g] for g in range(1, wl.rank + 1)}
    expected = occurrences.pop() if len(occurrences) == 1 else None
    assert pg.analyze(pg.build_whitehead_graph(wl)).regular_k == expected


def test_match_power():
    base = pg.cyclic_reduce(pg.parse_word("abAB", 2))
    twice = pg.parse_word("abABabAB", 2).letters
    rotated = twice[3:] + twice[:3]
    assert match_power(rotated, base) == 2
    inv = pg.parse_word("(abAB)^-1", 2).letters
    assert match_power(inv, base) == -1
    assert match_power(pg.parse_word("aab", 2).letters, base) is None
