"""The value types and records keep their constructor, equality, hash, order,
repr, validation and immutability: callers, sets, dict keys and messages
depend on each of them."""

import copy
import pickle

import pytest

import polygonality as pg
from polygonality.errors import PreconditionError, TrivialWordError, WordParseError
from polygonality.regular import KGraphVerdict
from polygonality.simplex import ZERO, LPResult
from polygonality.whitehead import MAX_RANK, VertexId
from polygonality.witness import Cycle, balance_column, make_cycle
from polygonality.words import WordList, make_word_list, parse_word, word_text


def commutator_cycle() -> Cycle:
    graph = pg.build_whitehead_graph(pg.parse_word_list("rank 2\nabAB"))
    return make_cycle(graph, {0, 1, 2, 3})


def values():
    """One instance of every value type, each with its compared fields: a
    vertex, whose index is also its letter's code, for each kind of letter."""
    return [
        (VertexId(1, -1), (1, -1)),
        (VertexId(2, 1), (2, 1)),
        (VertexId(26, -1), (26, -1)),  # Z, the last letter written alone
        (VertexId(27, 1), (27, 1)),  # a27, the first letter written as a token
        (VertexId(MAX_RANK, -1), (MAX_RANK, -1)),
    ]


@pytest.mark.parametrize("value, compared", values())
def test_hash_is_that_of_the_compared_fields(value, compared):
    # set and dict order, and so output order, follow these hashes
    assert hash(value) == hash(compared)
    assert value != compared and compared != value


@pytest.mark.parametrize("value, compared", values())
def test_assignment_and_deletion_raise(value, compared):
    with pytest.raises(AttributeError):
        setattr(value, "index", 0)
    with pytest.raises(AttributeError):
        setattr(value, "other", 0)
    with pytest.raises(AttributeError):
        delattr(value, "index")


@pytest.mark.parametrize("value, compared", values())
def test_copy_and_pickle_round_trip(value, compared):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)


def test_vertex_id():
    v = VertexId(1, 1)
    assert v == VertexId(1, 1) and v != VertexId(1, -1) and v != (1, 1)
    assert VertexId(1, 5).sign == 1 and VertexId(1, -7).sign == -1 and VertexId(1, 0).sign == -1
    assert VertexId(gen=2, sign=-1) == VertexId(2, -1)
    assert repr(VertexId(1, 1)) == "VertexId(gen=1, sign=1)"
    assert repr(VertexId(3, -2)) == "VertexId(gen=3, sign=-1)"
    assert sorted([VertexId(2, 1), VertexId(1, -1), VertexId(1, 1)]) == [
        VertexId(1, 1), VertexId(1, -1), VertexId(2, 1)
    ]
    assert VertexId(1, -1) > VertexId(1, 1)  # reflected __lt__
    with pytest.raises(TypeError):
        VertexId(1, 1) <= VertexId(1, 1)  # only __lt__ is defined
    match v:
        case VertexId(gen, sign):
            assert (gen, sign) == (1, 1)


def test_letter():
    # a letter is the code 2(g - 1) + (s < 0), its vertex's index; c ^ 1 inverts it
    for g in (1, 2, 26, 27, MAX_RANK):
        for s in (1, -1):
            code = VertexId(g, s).index
            assert parse_word(f"a{g}" if s > 0 else f"a{g}^-1", MAX_RANK) == (code,)
            assert code ^ 1 == VertexId(g, -s).index
    assert parse_word("aAbBzZ", 26) == (0, 1, 2, 3, 50, 51)
    # codes order a before a^-1, as vertices do
    assert sorted(parse_word("BbAa", 2)) == [0, 1, 2, 3]
    with pytest.raises(WordParseError, match="generator a0 out of rank 2"):
        parse_word("a0", 2)


def test_word():
    # a word is a plain tuple of codes: equality and hashing are the tuple's
    w = parse_word("aB", 2)
    assert w == (0, 3) and type(w) is tuple and hash(w) == hash((0, 3))
    assert word_text(w) == "aB" and word_text(()) == ""


def test_word_list():
    wl = make_word_list(2, [(0, 3), (0,)])
    assert wl == WordList(rank=2, words=((0, 3), (0,))) and type(wl.words) is tuple
    assert repr(WordList(1, ((0,),))) == "WordList(rank=1, words=((0,),))"
    with pytest.raises(WordParseError, match="rank must be >= 1, got 0"):
        make_word_list(0, ())
    with pytest.raises(TrivialWordError, match="word 0 is empty"):
        make_word_list(2, ((),))
    with pytest.raises(PreconditionError, match=r"word 0 \(aA\) is not cyclically reduced"):
        make_word_list(2, ((0, 1),))
    # the last letter is followed by the first
    with pytest.raises(PreconditionError, match=r"word 1 \(abA\) is not cyclically reduced"):
        make_word_list(2, ((0,), (0, 2, 1)))
    with pytest.raises(WordParseError, match="word 0 uses generator 2 beyond rank 1"):
        make_word_list(1, ((3,),))


def test_cycle():
    # the walk is the whole cycle: equality and hashing are the tuple's
    c = commutator_cycle()
    assert c == Cycle(verts=(0, 3, 1, 2), edges=(0, 3, 2, 1)) and hash(c) == hash(tuple(c))
    assert c.key == (0, 1, 2, 3) and c.is_long
    # it passes both sides of both of its classes, so its column cancels
    sigma = pg.build_whitehead_graph(pg.parse_word_list("rank 2\nabAB")).sigma
    assert balance_column(sigma, c) == [
        ((0, 0, 1), 0), ((2, 1, 2), 1), ((0, 0, 1), 1), ((2, 1, 2), 0)
    ]
    assert not Cycle((0, 1), (5, 6)).is_long


def test_records():
    assert repr(KGraphVerdict(True, 3, None)) == "KGraphVerdict(ok=True, k=3, violating_set=None)"
    assert KGraphVerdict(ok=False, k=2, violating_set=(VertexId(1, 1),)).violating_set == (
        VertexId(1, 1),
    )
    with pytest.raises(AttributeError):
        KGraphVerdict(True, 3, None).ok = False
    assert repr(commutator_cycle()) == "Cycle(verts=(0, 3, 1, 2), edges=(0, 3, 2, 1))"


def test_lp_result_is_a_plain_record():
    res = LPResult([ZERO], ZERO, [ZERO, ZERO])
    assert repr(res) == (
        "LPResult(x=[Fraction(0, 1)], objective=Fraction(0, 1), "
        "duals=[Fraction(0, 1), Fraction(0, 1)])"
    )
    assert LPResult([1], 2, []) == LPResult(x=[1], objective=2, duals=[])
    with pytest.raises(TypeError):
        LPResult([1], 2)  # no field has a default
