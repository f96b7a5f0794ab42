"""Data model and file ingestion for N-best reranking corpora.

File formats (UTF-8, fields separated by ``|||``):

* N-best file, one candidate per line::

      <sent_id> ||| <candidate tokens> ||| <feat_1> ... <feat_M> ||| <derivation>

  where the derivation is a sequence of phrase-pair segments in target
  order, e.g. ``[ das haus # the house ] [ ist klein # is small ]``.
* Reference file: ``<sent_id> ||| <source tokens> ||| <reference tokens>``.
* Weight file: one real per line, M+1 lines (last entry weights the learned
  phrase-similarity feature).

Tokens are lowercased at load time.  Loaded corpora are immutable by
convention and safe to share across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PhrasePair:
    """A (source phrase, target phrase) unit from a derivation."""

    source: tuple[str, ...]
    target: tuple[str, ...]

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("phrases must be non-empty")


@dataclass(eq=False)
class NBestEntry:
    """One candidate translation with its baseline features and derivation."""

    tokens: tuple[str, ...]
    features: np.ndarray
    derivation: list[PhrasePair]
    sbleu: float | None = None


@dataclass(eq=False)
class TrainingSample:
    """A source sentence, its reference, and the candidate list for it."""

    sample_id: int
    source: tuple[str, ...]
    reference: tuple[str, ...]
    candidates: list[NBestEntry]


def _fold(tokens) -> tuple[str, ...]:
    return tuple(t.lower() for t in tokens)


def _check_derivation(entry: NBestEntry, path, line) -> None:
    flat = tuple(tok for pair in entry.derivation for tok in pair.target)
    if flat != entry.tokens:
        raise CorpusError(
            "derivation target phrases do not concatenate to the candidate "
            f"(derivation yields {' '.join(flat)!r}, candidate is {' '.join(entry.tokens)!r})",
            path,
            line,
        )


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
        pairs.append(PhrasePair(_fold(src), _fold(tgt)))
    if not pairs:
        raise CorpusError("candidate has an empty derivation", path, line)
    return pairs


def format_derivation(derivation) -> str:
    return " ".join(f"[ {' '.join(p.source)} # {' '.join(p.target)} ]" for p in derivation)


def load_references(path) -> dict[int, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Parse a reference file into ``{sent_id: (source, reference)}``."""
    refs: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            parts = [p.strip() for p in raw.split(FIELD_SEP)]
            if len(parts) != 3:
                raise CorpusError(f"expected 3 '{FIELD_SEP}' fields, got {len(parts)}", path, lineno)
            try:
                sent_id = int(parts[0])
            except ValueError:
                raise CorpusError(f"bad sentence id {parts[0]!r}", path, lineno) from None
            if sent_id in refs:
                raise CorpusError(f"duplicate sentence id {sent_id}", path, lineno)
            source = _fold(parts[1].split())
            reference = _fold(parts[2].split())
            if not reference:
                raise CorpusError("empty reference", path, lineno)
            refs[sent_id] = (source, reference)
    if not refs:
        raise CorpusError("reference file is empty", path)
    return refs


def parse_nbest(path) -> dict[int, list[NBestEntry]]:
    """Parse an N-best file into candidate lists keyed by sentence id.

    Candidates stay grouped by sentence id in order of first appearance.
    Every derivation is validated against its candidate tokens, the feature
    count must be consistent across the file, and exact duplicate
    (tokens, derivation) candidates within a sentence collapse to their first
    occurrence.
    """
    by_id: dict[int, list[NBestEntry]] = {}
    n_features: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            parts = [p.strip() for p in raw.split(FIELD_SEP)]
            if len(parts) != 4:
                raise CorpusError(f"expected 4 '{FIELD_SEP}' fields, got {len(parts)}", path, lineno)
            try:
                sent_id = int(parts[0])
            except ValueError:
                raise CorpusError(f"bad sentence id {parts[0]!r}", path, lineno) from None
            tokens = _fold(parts[1].split())
            if not tokens:
                raise CorpusError("empty candidate", path, lineno)
            try:
                feats = np.array([float(v) for v in parts[2].split()], dtype=np.float64)
            except ValueError:
                raise CorpusError(f"bad feature value in {parts[2]!r}", path, lineno) from None
            if feats.size == 0 or not np.all(np.isfinite(feats)):
                raise CorpusError("features must be a non-empty list of finite reals", path, lineno)
            if n_features is None:
                n_features = feats.size
            elif feats.size != n_features:
                raise CorpusError(
                    f"inconsistent feature count: expected {n_features}, got {feats.size}", path, lineno
                )
            entry = NBestEntry(tokens, feats, _parse_derivation(parts[3], path, lineno))
            _check_derivation(entry, path, lineno)
            by_id.setdefault(sent_id, []).append(entry)
    if not by_id:
        raise CorpusError("N-best file is empty", path)
    return {sent_id: _first_occurrences(entries) for sent_id, entries in by_id.items()}


def _first_occurrences(entries) -> list[NBestEntry]:
    """The entries with exact duplicate (tokens, derivation) candidates collapsed to the first."""
    seen = set()
    kept = []
    for entry in entries:
        # plain tuples hash in C; the PhrasePair dataclass hash runs Python code per pair
        key = (entry.tokens, tuple([(p.source, p.target) for p in entry.derivation]))
        if key not in seen:
            seen.add(key)
            kept.append(entry)
    return kept


def load_nbest(path, references) -> list[TrainingSample]:
    """Load an N-best file, pairing candidates with ``load_references`` output.

    Sentence BLEU against the reference is computed and cached on each entry.
    """
    by_id = parse_nbest(path)
    samples = []
    for sent_id, entries in by_id.items():
        if sent_id not in references:
            raise CorpusError(f"sentence id {sent_id} missing from reference file", path)
        source, reference = references[sent_id]
        for entry in entries:
            entry.sbleu = bleu.sentence_bleu(reference, entry.tokens)
        samples.append(TrainingSample(sent_id, source, reference, entries))
    return samples


def load_samples(nbest_path, refs_path) -> list[TrainingSample]:
    """Convenience wrapper: read references then the N-best file."""
    return load_nbest(nbest_path, load_references(refs_path))


def save_nbest(samples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            for entry in sample.candidates:
                feats = " ".join(repr(float(v)) for v in entry.features)
                fh.write(
                    f"{sample.sample_id} {FIELD_SEP} {' '.join(entry.tokens)} {FIELD_SEP} "
                    f"{feats} {FIELD_SEP} {format_derivation(entry.derivation)}\n"
                )


def save_references(samples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(
                f"{sample.sample_id} {FIELD_SEP} {' '.join(sample.source)} {FIELD_SEP} "
                f"{' '.join(sample.reference)}\n"
            )


def dedupe_candidates(samples) -> list[TrainingSample]:
    """Collapse exact duplicate (tokens, derivation) candidates, keeping the first.

    Mirrors what ``load_nbest`` does, for corpora built in memory.
    """
    return [
        TrainingSample(s.sample_id, s.source, s.reference, _first_occurrences(s.candidates))
        for s in samples
    ]


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
    counts: dict[PhrasePair, int] = {}
    for sample in samples:
        for entry in sample.candidates:
            for pair in entry.derivation:
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def save_phrase_table(pairs: dict[PhrasePair, int], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair, count in pairs.items():
            fh.write(f"{' '.join(pair.source)} {FIELD_SEP} {' '.join(pair.target)} {FIELD_SEP} {count}\n")


def load_phrase_table(path) -> dict[PhrasePair, int]:
    pairs: dict[PhrasePair, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            parts = [p.strip() for p in raw.split(FIELD_SEP)]
            if len(parts) != 3:
                raise CorpusError(f"expected 3 '{FIELD_SEP}' fields, got {len(parts)}", path, lineno)
            try:
                count = int(parts[2])
            except ValueError:
                raise CorpusError(f"bad count {parts[2]!r}", path, lineno) from None
            pair = PhrasePair(_fold(parts[0].split()), _fold(parts[1].split()))
            if pair in pairs:
                raise CorpusError("duplicate phrase pair", path, lineno)
            pairs[pair] = count
    return pairs


def load_lambda(path, expected_len: int | None = None) -> np.ndarray:
    """Read a weight vector, one real per line (M baseline weights + 1)."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                values.append(float(raw))
            except ValueError:
                raise CorpusError(f"bad weight {raw!r}", path, lineno) from None
    if not values or not all(math.isfinite(v) for v in values):
        raise CorpusError("weight file must contain finite reals", path)
    weights = np.array(values, dtype=np.float64)
    if expected_len is not None and weights.size != expected_len:
        raise CorpusError(f"expected {expected_len} weights, found {weights.size}", path)
    return weights


def save_lambda(weights, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(weights, dtype=np.float64):
            fh.write(repr(float(v)) + "\n")


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    if not tokens:
        raise CorpusError("vocabulary file is empty", path)
    return Vocabulary.from_tokens(tokens)
