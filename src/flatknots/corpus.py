"""Named catalogs of projection words, bundled and user supplied.

The corpus file format is one entry per line, ``name: gauss code``,
with ``#`` comments and blank lines ignored.  Loading validates each
entry: the word must parse, every name must be unique, and every word
must realize in the sphere.  Errors carry the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple

from .embedding import _realize_cached, is_realizable
from .explore import _GAUSS_PRIME, _orderly
from .invariants import reduce_r1
from .words import Word, WordError, is_prime, parse_word

BUNDLED_CORPUS = "projections_upto7.txt"


class CorpusError(ValueError):
    """A corpus file failed validation; the message names the line."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    word: Word
    line: int


def parse_corpus(text: str) -> Tuple[CorpusEntry, ...]:
    entries = []
    seen = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CorpusError(f"line {number}: expected 'name: gauss code'")
        name, _, code = line.partition(":")
        name = name.strip()
        if not name:
            raise CorpusError(f"line {number}: empty entry name")
        if name in seen:
            raise CorpusError(
                f"line {number}: duplicate name {name!r} (first on line {seen[name]})"
            )
        try:
            word = parse_word(code)
        except WordError as exc:
            raise CorpusError(f"line {number}: {exc}") from exc
        if not is_realizable(word):
            raise CorpusError(
                f"line {number}: word for {name!r} is not realizable in the sphere"
            )
        seen[name] = number
        entries.append(CorpusEntry(name=name, word=word, line=number))
    return tuple(entries)


def bundled_corpus_text() -> str:
    return (
        resources.files("flatknots")
        .joinpath("data")
        .joinpath(BUNDLED_CORPUS)
        .read_text(encoding="utf-8")
    )


def load_corpus(path: Optional[str] = None) -> Tuple[CorpusEntry, ...]:
    """Entries of the file at ``path``, or of the bundled catalog."""
    if path is None:
        return parse_corpus(bundled_corpus_text())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    return parse_corpus(text)


def corpus_entry(name: str, entries: Optional[Tuple[CorpusEntry, ...]] = None) -> CorpusEntry:
    if entries is None:
        entries = load_corpus()
    for entry in entries:
        if entry.name == name:
            return entry
    raise KeyError(f"no corpus entry named {name!r}")


def reduced_prime_census(n: int) -> Tuple[Word, ...]:
    """All canonical realizable words with n chords that are reduced and prime.

    The orderly generator of ``explore.enumerate_words`` closes chords
    under Gauss parity and the pair condition (Rosenstiehl 1976; de
    Fraysseix and Ossona de Mendez 1999), as for
    ``enumerate_realizable``, and under the closed block rule of
    ``words._closed_blocks``: a proper block closed under partners is a
    summand or a curl, so no completion is reduced and prime.  Each rule
    drops whole classes.  The leaves keep the realization certificate
    and the reduced and prime tests; the prime test is one linear pass.
    """
    return tuple(
        w
        for w in _orderly(n, _GAUSS_PRIME)
        if _realize_cached(w) is not None and reduce_r1(w) == w and is_prime(w)
    )
