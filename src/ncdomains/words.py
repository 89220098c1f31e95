"""Words of the free semigroup on n generators, in graded-lexicographic order.

A word is a tuple of letters from {1..n}; the empty tuple is the identity.
All operator matrices in this package are laid out in the order produced by
:func:`enumerate_words`, so a ``WordTable`` doubles as the basis index of a
truncated Fock space.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

Word = tuple[int, ...]

EMPTY: Word = ()


def check_word(w: Word, n: int) -> None:
    if any(not (1 <= int(c) <= n) for c in w):
        raise ValueError(f"word {w!r} has letters outside 1..{n}")


@dataclass(frozen=True)
class WordTable:
    """All words of length <= N over {1..n}, graded-lex ordered; shared between
    callers, so immutable.  A word's index is level arithmetic (``fock_size``)."""

    n: int
    N: int
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)

    def level_slice(self, m: int) -> slice:
        """Index range of the words of exact length m."""
        if not 0 <= m <= self.N:
            raise ValueError(f"level {m} outside 0..{self.N}")
        return slice(fock_size(self.n, m - 1), fock_size(self.n, m))


def fock_size(n: int, m: int) -> int:
    """Number of words of length <= m over n letters (0 for m < 0); the word of
    length m and rank rho among its level has graded-lex index fock_size(n, m - 1) + rho."""
    return max(m + 1, 0) if n == 1 else (n ** max(m + 1, 0) - 1) // (n - 1)


@functools.lru_cache(maxsize=64)
def _word_table(n: int, N: int) -> WordTable:
    return WordTable(n=n, N=N, words=tuple(words_of_lengths(n, 0, N)))


def enumerate_words(n: int, N: int) -> WordTable:
    """Enumerate all words of length <= N over the alphabet {1..n}.

    The table is built once per (n, N) and shared.
    """
    if n < 1:
        raise ValueError(f"alphabet size must be >= 1, got {n}")
    if N < 0:
        raise ValueError(f"truncation level must be >= 0, got {N}")
    return _word_table(n, N)


def words_of_lengths(n: int, lo: int, hi: int) -> list[Word]:
    """Graded-lex list of words with lo <= length <= hi."""
    out: list[Word] = []
    for m in range(lo, hi + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=m))
    return out
