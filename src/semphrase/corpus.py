"""Data model and file ingestion for N-best reranking corpora.

File formats (UTF-8, fields separated by ``|||``):

* N-best file, one candidate per line::

      <sent_id> ||| <candidate tokens> ||| <feat_1> ... <feat_M> ||| <derivation>

  where the derivation is a sequence of phrase-pair segments in target
  order, e.g. ``[ das haus # the house ] [ ist klein # is small ]``.
* Reference file: ``<sent_id> ||| <source tokens> ||| <reference tokens>``.
* Weight file: one real per line, M+1 lines (last entry weights the learned
  phrase-similarity feature).

Two readers serve every text input but the vocabulary (whose check sees a
token's whitespace): ``read_lines`` for the weight and config files, and
``read_records`` for the ``|||`` files.  Reals are ASCII without ``_``.

Tokens are lowercased at load time, a whole field in one ``fold_field``
call, and loaded corpora are immutable by convention.  A phrase pair is a
tuple value: ``PhrasePair(s, t)`` hashes and compares as the plain tuple
``(s, t)``, so every per-pair dict keys on it in C.  ``parse_nbest`` splits
each distinct derivation segment once per file, checks a derivation against
its candidate in one tuple comparison, and shares one object per distinct
pair and per distinct phrase across every candidate of the file, so a
per-pair dict hit is an identity check.  A file's features are one array.
Sentence ids are ASCII decimal digits (``parse_sentence_id``).
A ``TrainingSample`` is labelled when it is built: ``stats`` holds the
(n, 10) ``bleu.bleu_stats`` rows of its n candidates against the reference
and ``sbleus`` the sentence BLEU of each row.  ``load_nbest`` and
``label_samples`` label a whole corpus with one ``bleu.stats_rows`` call,
score each distinct row once with ``bleu.sentence_bleus``, and hand each
sample its slice of the rows and scores; a sample built directly labels
itself as a corpus of one.  Training reads ``sbleus``, tuning reads
``stats`` and reranking reads both.  Every file the package writes goes
through ``atomic_writer``.
"""

from __future__ import annotations

import math
import os
import uuid
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from . import bleu

UNK_TOKEN = "<unk>"
FIELD_SEP = "|||"


class CorpusError(ValueError):
    """Malformed corpus file; carries the offending path and line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}: "
        elif loc:
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line


@dataclass(frozen=True)
class Vocabulary:
    """Joint source+target token/index bijection with a reserved unknown slot."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(compare=False)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        toks = tuple(tokens)
        if not toks:
            raise ValueError("vocabulary must contain at least one token")
        idx = {t: i for i, t in enumerate(toks)}
        if len(idx) != len(toks):
            raise ValueError("vocabulary tokens must be distinct")
        return cls(toks, idx)

    def __len__(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int:
        """Index of ``token``, falling back to the unknown-token slot."""
        return self.index.get(token, self.index.get(UNK_TOKEN, 0))


class PhrasePair(namedtuple("PhrasePair", "source target")):
    """A (source phrase, target phrase) unit from a derivation; a tuple of two token tuples."""

    __slots__ = ()

    def __new__(cls, source: tuple[str, ...], target: tuple[str, ...]):
        if not source or not target:
            raise ValueError("phrases must be non-empty")
        return super().__new__(cls, source, target)


@dataclass(eq=False)
class NBestEntry:
    """One candidate translation with its baseline features and derivation."""

    tokens: tuple[str, ...]
    features: np.ndarray
    derivation: list[PhrasePair]


@dataclass(eq=False)
class TrainingSample:
    """A source sentence, its reference, and the candidate list for it, labelled once when built.

    ``stats`` is the (n, 10) int64 array of the candidates' ``bleu.bleu_stats``
    rows against ``reference``, and ``sbleus`` the (n,) sentence BLEU of each
    row.  Either may be given when it is already known (as ``label_samples``
    and ``dedupe_candidates`` do); otherwise the sample labels itself with
    ``bleu.stats_rows`` and ``bleu.sentence_bleus``.
    """

    sample_id: int
    source: tuple[str, ...]
    reference: tuple[str, ...]
    candidates: list[NBestEntry]
    stats: np.ndarray | None = None
    sbleus: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.candidates)
        if self.stats is None:
            self.stats = bleu.stats_rows([self.reference], [[entry.tokens for entry in self.candidates]])
        if self.stats.shape != (n, 2 * bleu.MAX_ORDER + 2):
            raise ValueError(f"stats of shape {self.stats.shape} for {n} candidates")
        if self.sbleus is None:
            self.sbleus = bleu.sentence_bleus(self.stats)
        if self.sbleus.shape != (n,):
            raise ValueError(f"sbleus of shape {self.sbleus.shape} for {n} candidates")


def label_samples(parts) -> list[TrainingSample]:
    """``TrainingSample(*part)`` of each (sample_id, source, reference, candidates) part.

    The whole corpus is labelled with one ``bleu.stats_rows`` call and one
    ``bleu.sentence_bleus`` call, which scores each distinct row once; each
    sample keeps its slice of the rows and of the scores.
    """
    parts = list(parts)
    candidate_lists = [[entry.tokens for entry in candidates] for *_, candidates in parts]
    rows = bleu.stats_rows([reference for _, _, reference, _ in parts], candidate_lists)
    ends = np.cumsum([len(candidates) for candidates in candidate_lists], dtype=np.int64)[:-1]
    labels = zip(np.split(rows, ends), np.split(bleu.sentence_bleus(rows), ends))
    return [TrainingSample(*part, *label) for part, label in zip(parts, labels)]


@contextmanager
def atomic_writer(path, binary: bool = False):
    """A new file to write ``path``'s contents to, renamed over ``path`` once complete.

    The file is uniquely named next to ``path`` and opened in text (UTF-8) or
    binary mode.  If the block raises, it is removed, so a failed write leaves
    any previous file at ``path`` intact and no temporary file behind.  An
    ``OSError`` about the temporary file (it cannot be created, or renamed
    over ``path``) is re-raised naming ``path``.
    """
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename, exc.filename2 = os.fspath(path), None
        raise


def fold(tokens) -> tuple[str, ...]:
    """``str.lower`` of each token, the one case fold; ``bleu.stats_rows``, below this module, lowers alike."""
    return tuple(t.lower() for t in tokens)


def fold_field(text: str) -> tuple[str, ...]:
    """``fold(text.split())``, lowering the whole field in one call.

    The two agree on every text: no code point lowers to or from whitespace,
    and whitespace ends the context of a final sigma.
    """
    return tuple(text.lower().split())


def _parse_derivation(text: str, path, line) -> list[PhrasePair]:
    pairs = []
    toks = text.split()
    pos = 0
    while pos < len(toks):
        if toks[pos] != "[":
            raise CorpusError(f"expected '[' in derivation, got {toks[pos]!r}", path, line)
        pos += 1
        src = []
        while pos < len(toks) and toks[pos] != "#":
            src.append(toks[pos])
            pos += 1
        if pos >= len(toks):
            raise CorpusError("derivation segment missing '#'", path, line)
        pos += 1
        tgt = []
        while pos < len(toks) and toks[pos] != "]":
            tgt.append(toks[pos])
            pos += 1
        if pos >= len(toks):
            raise CorpusError("derivation segment missing ']'", path, line)
        pos += 1
        if not src or not tgt:
            raise CorpusError("derivation segment has an empty phrase", path, line)
        pairs.append(PhrasePair(fold(src), fold(tgt)))
    if not pairs:
        raise CorpusError("candidate has an empty derivation", path, line)
    return pairs


def _shared(source: tuple[str, ...], target: tuple[str, ...], shared: dict) -> PhrasePair:
    """The one ``PhrasePair`` ``shared`` keeps for (source, target), whose phrases are likewise the kept ones.

    Phrases (tuples of strings) and pairs (tuples of two phrases) never compare
    equal, so one dict holds both.  A pair is built the first time it is seen.
    """
    source = shared.setdefault(source, source)
    target = shared.setdefault(target, target)
    pair = shared.get((source, target))
    if pair is None:
        pair = PhrasePair(source, target)
        shared[pair] = pair
    return pair


def _segment(piece: str, shared: dict) -> PhrasePair | None:
    """The shared pair of ``[piece]`` if ``_parse_derivation`` reads it as exactly one pair, else None.

    It does exactly when the piece begins and ends with whitespace (so ``[``
    and ``]`` stand alone) and its tokens hold a ``#`` whose tokens before the
    first one and after it are both non-empty, the latter without ``]``.
    """
    tokens = fold_field(piece)
    if "#" not in tokens or not (piece[:1].isspace() and piece[-1:].isspace()):
        return None
    i = tokens.index("#")
    source, target = tokens[:i], tokens[i + 1 :]
    if not source or not target or "]" in target:
        return None
    return _shared(source, target, shared)


def _derivation(text: str, segments: dict, shared: dict, path, line) -> list[PhrasePair]:
    """``_parse_derivation(text)``, parsing each distinct segment once per file.

    The text between the outer ``[`` and ``]`` splits on ``"] ["``; each piece
    not yet in ``segments`` is read once by ``_segment``.  ``segments`` maps a
    piece to its shared pair, or to None when ``[piece]`` alone is not exactly
    one pair.  A line with such a piece, or not bracketed at both ends, is
    parsed whole by ``_parse_derivation``, so it is accepted or refused exactly
    as the strict parser does.  A piece that parses alone begins and ends with
    whitespace, so the pieces of a line taken here tokenize to the line's
    tokens block by block and give the strict parser's pairs.
    """
    if text.startswith("[") and text.endswith("]"):
        pieces = text[1:-1].split("] [")
        derivation = list(map(segments.get, pieces))
        if None in derivation:
            for piece in pieces:
                if piece not in segments:
                    segments[piece] = _segment(piece, shared)
            derivation = list(map(segments.get, pieces))
        if None not in derivation:
            return derivation
    return [_shared(*pair, shared) for pair in _parse_derivation(text, path, line)]


def parse_sentence_id(text: str, path, line) -> int:
    """The sentence id field ``text``: one or more ASCII decimal digits.

    ``int`` alone would also take ``1_0``, a sign, or non-ASCII digits, so such
    an id could silently join another sentence's list.
    """
    if not (text.isascii() and text.isdigit()):
        raise CorpusError(f"bad sentence id {text!r}", path, line)
    return int(text)


def _reals(text: str) -> list[float]:
    """The reals of ``text``, or ``ValueError``; ``float`` alone would also read ``1_0`` or ``٣``."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return list(map(float, text.split()))


def read_lines(path):
    """``(line number, stripped text)`` of each non-blank line of the UTF-8 file ``path``."""
    with open(path, encoding="utf-8") as fh:
        yield from filter(itemgetter(1), enumerate(map(str.strip, fh), start=1))


def read_records(path, n_fields: int, what: str, at_least: bool = False):
    """``(line number, sentence id, other fields)`` of each line of ``n_fields`` ``|||`` fields.

    More fields are allowed if ``at_least``; a file without records is refused as ``what``.
    Each distinct id field is read once per call.
    """
    lineno = 0
    ids: dict[str, int] = {}
    for lineno, text in read_lines(path):
        parts = list(map(str.strip, text.split(FIELD_SEP)))
        if len(parts) != n_fields and not (at_least and len(parts) > n_fields):
            expected = f"at least {n_fields}" if at_least else n_fields
            raise CorpusError(f"expected {expected} '{FIELD_SEP}' fields, got {len(parts)}", path, lineno)
        sent_id = ids.get(parts[0])
        if sent_id is None:
            sent_id = ids[parts[0]] = parse_sentence_id(parts[0], path, lineno)
        yield lineno, sent_id, parts[1:]
    if not lineno:
        raise CorpusError(f"{what} is empty", path)


def format_derivation(derivation) -> str:
    return " ".join(f"[ {' '.join(p.source)} # {' '.join(p.target)} ]" for p in derivation)


def load_references(path) -> dict[int, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Parse a reference file into ``{sent_id: (source, reference)}``."""
    refs: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for lineno, sent_id, (source, reference) in read_records(path, 3, "reference file"):
        if sent_id in refs:
            raise CorpusError(f"duplicate sentence id {sent_id}", path, lineno)
        reference = fold_field(reference)
        if not reference:
            raise CorpusError("empty reference", path, lineno)
        refs[sent_id] = (fold_field(source), reference)
    return refs


def parse_nbest(path) -> dict[int, list[NBestEntry]]:
    """Parse an N-best file into candidate lists keyed by sentence id.

    Candidates stay grouped by sentence id in order of first appearance.
    Every derivation is validated against its candidate tokens, the feature
    count must be consistent across the file, and exact duplicate
    (tokens, derivation) candidates within a sentence collapse to their first
    occurrence.  Each field is folded in one ``fold_field`` call.  Each
    distinct derivation segment is split once per file, and every occurrence
    of a pair in the file is one shared ``PhrasePair``, as is every occurrence
    of a phrase; nothing is kept from one call to the next.  The file's
    features are one array, and each entry's ``features`` is its row.
    """
    lines: list[tuple[int, tuple[str, ...], list[PhrasePair]]] = []
    values: list[float] = []
    n_features: int | None = None
    segments: dict[str, PhrasePair | None] = {}
    shared: dict[tuple, tuple] = {}
    for lineno, sent_id, (candidate, features, derivation) in read_records(path, 4, "N-best file"):
        tokens = fold_field(candidate)
        if not tokens:
            raise CorpusError("empty candidate", path, lineno)
        try:
            reals = _reals(features)
        except ValueError:
            raise CorpusError(f"bad feature value in {features!r}", path, lineno) from None
        if not reals or not all(map(math.isfinite, reals)):
            raise CorpusError("features must be a non-empty list of finite reals", path, lineno)
        if len(reals) != n_features:
            if n_features is not None:
                raise CorpusError(
                    f"inconsistent feature count: expected {n_features}, got {len(reals)}", path, lineno
                )
            n_features = len(reals)
        derivation = _derivation(derivation, segments, shared, path, lineno)
        targets = tuple(chain.from_iterable(map(itemgetter(1), derivation)))
        if targets != tokens:
            raise CorpusError(
                "derivation target phrases do not concatenate to the candidate "
                f"(derivation yields {' '.join(targets)!r}, candidate is {' '.join(tokens)!r})",
                path,
                lineno,
            )
        values += reals
        lines.append((sent_id, tokens, derivation))
    by_id: dict[int, list[NBestEntry]] = {}
    rows = np.array(values, dtype=np.float64).reshape(len(lines), n_features)
    for (sent_id, tokens, derivation), row in zip(lines, rows):
        by_id.setdefault(sent_id, []).append(NBestEntry(tokens, row, derivation))
    return {sent_id: [entries[i] for i in _first_occurrences(entries)] for sent_id, entries in by_id.items()}


def _first_occurrences(entries) -> list[int]:
    """Indices of the entries left when exact duplicate (tokens, derivation) candidates collapse to the first."""
    first = {}
    for i, entry in enumerate(entries):
        first.setdefault((entry.tokens, tuple(entry.derivation)), i)
    return list(first.values())


def load_nbest(path, references) -> list[TrainingSample]:
    """Load an N-best file, pairing candidates with ``load_references`` output.

    Every sentence id must have both a reference and candidates.  The whole
    file is labelled with one ``bleu.stats_rows`` call.
    """
    by_id = parse_nbest(path)
    unmatched = sorted(set(references) - set(by_id))
    if unmatched:
        raise CorpusError(f"reference ids {unmatched[:5]} have no candidates", path)
    for sent_id in by_id:
        if sent_id not in references:
            raise CorpusError(f"sentence id {sent_id} missing from reference file", path)
    return label_samples((sent_id, *references[sent_id], entries) for sent_id, entries in by_id.items())


def load_samples(nbest_path, refs_path) -> list[TrainingSample]:
    """Convenience wrapper: read references then the N-best file."""
    return load_nbest(nbest_path, load_references(refs_path))


def save_nbest(samples, path) -> None:
    with atomic_writer(path) as fh:
        for sample in samples:
            for entry in sample.candidates:
                feats = " ".join(repr(float(v)) for v in entry.features)
                fh.write(
                    f"{sample.sample_id} {FIELD_SEP} {' '.join(entry.tokens)} {FIELD_SEP} "
                    f"{feats} {FIELD_SEP} {format_derivation(entry.derivation)}\n"
                )


def save_references(samples, path) -> None:
    with atomic_writer(path) as fh:
        for sample in samples:
            fh.write(
                f"{sample.sample_id} {FIELD_SEP} {' '.join(sample.source)} {FIELD_SEP} "
                f"{' '.join(sample.reference)}\n"
            )


def dedupe_candidates(samples) -> list[TrainingSample]:
    """Collapse exact duplicate (tokens, derivation) candidates, keeping the first.

    Mirrors what ``load_nbest`` does, for corpora built in memory.  The kept
    candidates keep their rows of ``stats`` and ``sbleus``; nothing is labelled again.
    """
    deduped = []
    for s in samples:
        kept = _first_occurrences(s.candidates)
        candidates = [s.candidates[i] for i in kept]
        deduped.append(TrainingSample(s.sample_id, s.source, s.reference, candidates, s.stats[kept], s.sbleus[kept]))
    return deduped


def build_vocabulary(samples) -> Vocabulary:
    """First-occurrence-ordered vocabulary over both languages, UNK at index 0."""
    tokens: list[str] = [UNK_TOKEN]
    seen = {UNK_TOKEN}

    def add(seq):
        for tok in seq:
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)

    any_token = False
    for sample in samples:
        add(sample.source)
        add(sample.reference)
        any_token = any_token or bool(sample.source) or bool(sample.reference)
        for entry in sample.candidates:
            add(entry.tokens)
            any_token = any_token or bool(entry.tokens)
            for pair in entry.derivation:
                add(pair.source)
                add(pair.target)
    if not any_token:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return Vocabulary.from_tokens(tokens)


def collect_phrase_pairs(samples) -> dict[PhrasePair, int]:
    """Unique phrase pairs with total occurrence counts over all derivations.

    Keys are ordered by first occurrence, so repeated calls on the same corpus
    enumerate pairs identically.
    """
    return Counter(pair for sample in samples for entry in sample.candidates for pair in entry.derivation)


def load_lambda(path, expected_len: int | None = None) -> np.ndarray:
    """Read a weight vector, one real per line (M baseline weights + 1)."""
    values = []
    for lineno, text in read_lines(path):
        try:
            (value,) = _reals(text)
        except ValueError:
            raise CorpusError(f"bad weight {text!r}", path, lineno) from None
        values.append(value)
    if not values or not all(math.isfinite(v) for v in values):
        raise CorpusError("weight file must contain finite reals", path)
    weights = np.array(values, dtype=np.float64)
    if expected_len is not None and weights.size != expected_len:
        raise CorpusError(f"expected {expected_len} weights, found {weights.size}", path)
    return weights


def save_lambda(weights, path) -> None:
    with atomic_writer(path) as fh:
        for v in np.asarray(weights, dtype=np.float64):
            fh.write(repr(float(v)) + "\n")


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with atomic_writer(path) as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocabulary(path) -> Vocabulary:
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            token = raw.rstrip("\n")
            if not token:
                continue
            if token in first_line:
                raise CorpusError(f"token {token!r} repeats line {first_line[token]}", path, lineno)
            if token.split() != [token]:
                raise CorpusError(f"token {token!r} holds whitespace, which no corpus token does", path, lineno)
            first_line[token] = lineno
    tokens = list(first_line)
    if not tokens:
        raise CorpusError("vocabulary file is empty", path)
    if tokens[0] != UNK_TOKEN:
        first = tokens[0]
        raise CorpusError(f"first token is {first!r}, not the reserved {UNK_TOKEN!r}", path, first_line[first])
    return Vocabulary.from_tokens(tokens)
