import dataclasses


import pytest
from hypothesis import given, strategies as st

from ncdomains.words import (EMPTY, check_word, enumerate_words, fock_size, level_rank,
                             words_of_lengths)

from conftest import reverse, word_index


def graded_lex_key(w: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the graded-lex order g0 < g1 < ... < gn < g1g1 < ..."""
    return (len(w), tuple(w))


def test_empty_alphabet_rejected():
    with pytest.raises(ValueError):
        enumerate_words(0, 3)
    with pytest.raises(ValueError):
        enumerate_words(2, -1)


def test_enumeration_order_n2_level2():
    table = enumerate_words(2, 2)
    assert table.words == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
    assert len(table) == 7
    assert word_index(table)[(2, 1)] == 5


def test_counts():
    for n in (1, 2, 3):
        for N in range(5):
            table = enumerate_words(n, N)
            assert len(table) == sum(n**m for m in range(N + 1))
            assert fock_size(table.n, N) == len(table)


def test_level_rank_gives_the_word_table_index():
    """fock_size(n, |w| - 1) + level_rank(w, n) is w's index in the word table."""
    for n in (1, 2, 3):
        table = enumerate_words(n, 4)
        for k, w in enumerate(table.words):
            assert fock_size(n, len(w) - 1) + level_rank(w, n) == k


def test_level_slice():
    table = enumerate_words(2, 3)
    sl = table.level_slice(2)
    assert table.words[sl] == ((1, 1), (1, 2), (2, 1), (2, 2))
    with pytest.raises(ValueError):
        table.level_slice(4)


def test_graded_lex_is_sorted_by_key():
    table = enumerate_words(3, 3)
    assert list(table.words) == sorted(table.words, key=graded_lex_key)


def test_table_is_shared_and_immutable():
    table = enumerate_words(2, 3)
    assert enumerate_words(2, 3) is table
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.words = ()
    with pytest.raises(AttributeError):
        table.words.append((1,))


def test_check_word():
    check_word((1, 2), 2)
    with pytest.raises(ValueError):
        check_word((0,), 2)
    with pytest.raises(ValueError):
        check_word((3,), 2)


def test_words_of_lengths():
    ws = words_of_lengths(2, 1, 2)
    assert ws == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


words_st = st.lists(st.integers(1, 3), max_size=6).map(tuple)


@given(words_st, words_st)
def test_concat_reverse_antihomomorphism(u, v):
    assert reverse(u + v) == reverse(v) + reverse(u)
    assert reverse(reverse(u)) == u


@given(words_st)
def test_reverse_preserves_length(u):
    assert len(reverse(u)) == len(u)
    assert u + EMPTY == u == EMPTY + u
