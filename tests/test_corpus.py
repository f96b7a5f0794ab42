"""Corpus parsing, persistence round trips, vocabulary, and phrase-pair counting."""

import re
import tracemalloc

import numpy as np
import pytest

from semphrase import bleu, cli, corpus, synth

from bleu_reference import ref_bleu_stats, ref_sentence_bleu
from conftest import make_random_corpus

NBEST_SMALL = """\
0 ||| the house ||| 0.5 -1.0 ||| [ das haus # the house ]
0 ||| a house ||| 0.25 -2.0 ||| [ das # a ] [ haus # house ]
"""

REFS_SMALL = """\
0 ||| das haus ||| the house
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def samples_equal(a, b):
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        if (sa.sample_id, sa.source, sa.reference) != (sb.sample_id, sb.source, sb.reference):
            return False
        if len(sa.candidates) != len(sb.candidates):
            return False
        if not (np.array_equal(sa.stats, sb.stats) and np.array_equal(sa.sbleus, sb.sbleus)):
            return False
        for ea, eb in zip(sa.candidates, sb.candidates):
            if ea.tokens != eb.tokens or ea.derivation != eb.derivation:
                return False
            if not np.array_equal(ea.features, eb.features):
                return False
    return True


class TestLoading:
    def test_one_sample_two_candidates(self, tmp_path):
        samples = corpus.load_samples(
            _write(tmp_path, "nbest", NBEST_SMALL), _write(tmp_path, "refs", REFS_SMALL)
        )
        assert len(samples) == 1
        assert len(samples[0].candidates) == 2
        assert samples[0].source == ("das", "haus")
        assert samples[0].candidates[0].tokens == ("the", "house")
        assert samples[0].sbleus[0] == 1.0
        assert samples[0].stats[0].tolist() == [2, 1, 0, 0, 2, 1, 0, 0, 2, 2]
        assert samples[0].candidates[1].features[1] == -2.0

    def test_derivation_mismatch_reports_line(self, tmp_path):
        bad = NBEST_SMALL + "0 ||| the house ||| 0.5 -1.0 ||| [ das haus # a house ]\n"
        with pytest.raises(corpus.CorpusError, match=r":3:.*concatenate"):
            corpus.load_samples(_write(tmp_path, "nbest", bad), _write(tmp_path, "refs", REFS_SMALL))

    def test_empty_derivation_reports_line(self, tmp_path):
        bad = NBEST_SMALL + "0 ||| the house ||| 0.5 -1.0 ||| \n"
        with pytest.raises(corpus.CorpusError, match=r":3: candidate has an empty derivation"):
            corpus.parse_nbest(_write(tmp_path, "nbest", bad))

    @pytest.mark.parametrize("derivation", ["[ # the ]", "[ das # ]"])
    def test_empty_phrase_in_derivation_reports_line(self, tmp_path, derivation):
        bad = NBEST_SMALL + f"0 ||| the ||| 0.5 -1.0 ||| {derivation}\n"
        with pytest.raises(corpus.CorpusError, match=r"nbest:3: derivation segment has an empty phrase"):
            corpus.parse_nbest(_write(tmp_path, "nbest", bad))

    def test_malformed_line_reports_line(self, tmp_path):
        bad = "0 ||| just three fields ||| 0.5\n"
        with pytest.raises(corpus.CorpusError, match=r":1:"):
            corpus.load_samples(_write(tmp_path, "nbest", bad), _write(tmp_path, "refs", REFS_SMALL))

    def test_inconsistent_feature_count(self, tmp_path):
        bad = NBEST_SMALL + "0 ||| the ||| 0.5 ||| [ das haus # the ]\n"
        with pytest.raises(corpus.CorpusError, match="feature count"):
            corpus.load_samples(_write(tmp_path, "nbest", bad), _write(tmp_path, "refs", REFS_SMALL))

    def test_missing_reference_id(self, tmp_path):
        bad = NBEST_SMALL.replace("0 |||", "7 |||", 1)
        with pytest.raises(corpus.CorpusError, match="missing from reference"):
            corpus.load_samples(_write(tmp_path, "nbest", bad), _write(tmp_path, "refs", REFS_SMALL))

    def test_references_without_candidates_are_refused(self, tmp_path):
        extra = "".join(f"{i} ||| src ||| ref {i}\n" for i in range(9, 2, -1))
        nbest = _write(tmp_path, "nbest", NBEST_SMALL)
        with pytest.raises(corpus.CorpusError, match=r"nbest: reference ids \[3, 4, 5, 6, 7\] have no"):
            corpus.load_samples(nbest, _write(tmp_path, "refs", REFS_SMALL + extra))

    def test_duplicate_candidates_collapse_to_first(self, tmp_path):
        doubled = NBEST_SMALL + NBEST_SMALL
        samples = corpus.load_samples(
            _write(tmp_path, "nbest", doubled), _write(tmp_path, "refs", REFS_SMALL)
        )
        assert len(samples[0].candidates) == 2

    def test_file_and_memory_collapse_keep_the_same_candidates(self, tmp_path, rng):
        samples = make_random_corpus(rng, n_samples=5, max_candidates=5)
        doubled = []
        for s in samples:
            # later copies carry other features, so keeping the first is visible
            copies = [corpus.NBestEntry(e.tokens, e.features + 1.0, list(e.derivation)) for e in s.candidates]
            doubled.append(corpus.TrainingSample(s.sample_id, s.source, s.reference, s.candidates + copies[::-1]))
        per_sample = []
        for s in doubled:
            corpus.save_nbest([s], tmp_path / "one")
            per_sample.append((tmp_path / "one").read_text(encoding="utf-8").splitlines(keepends=True))
        # sentence ids interleave in the file
        lines = [line for i in range(max(map(len, per_sample))) for ls in per_sample for line in ls[i : i + 1]]
        (tmp_path / "nbest").write_text("".join(lines), encoding="utf-8")

        parsed = corpus.parse_nbest(tmp_path / "nbest")
        in_memory = corpus.dedupe_candidates(doubled)
        assert list(parsed) == [s.sample_id for s in in_memory]
        for s in in_memory:
            assert len(s.candidates) < len(doubled[s.sample_id].candidates)
            got = [(e.tokens, e.derivation, e.features.tolist()) for e in parsed[s.sample_id]]
            want = [(e.tokens, e.derivation, e.features.tolist()) for e in s.candidates]
            assert got == want

    def test_tokens_lowercased(self, tmp_path):
        nbest = "0 ||| The House ||| 0.5 ||| [ Das Haus # The House ]\n"
        refs = "0 ||| Das Haus ||| The House\n"
        samples = corpus.load_samples(_write(tmp_path, "n", nbest), _write(tmp_path, "r", refs))
        assert samples[0].candidates[0].tokens == ("the", "house")
        assert samples[0].candidates[0].derivation[0].source == ("das", "haus")

    @pytest.mark.parametrize(
        "text", ["ΟΔΟΣ ΟΔΟΣ", "İ", "ẞ", "The\tHouse", "the   House", "ΑΣ\t\tΣ  ΟΔΟΣ'Σ \t X"]
    )
    def test_fields_fold_as_each_token(self, tmp_path, text):
        """Candidate, reference, source and derivation fields load as ``corpus.fold`` of their tokens."""
        nbest = (f"0 ||| {text} ||| 0.5 ||| [ {text} # {text} ]\n"
                 f"0 ||| x {text} ||| 0.5 ||| [ y # x ] [ {text} # {text} ]\n")
        refs = f"0 ||| {text} ||| {text}\n"
        (sample,) = corpus.load_samples(_write(tmp_path, "n", nbest), _write(tmp_path, "r", refs))
        want = corpus.fold(text.split())
        assert sample.source == sample.reference == sample.candidates[0].tokens == want
        assert sample.candidates[1].tokens == ("x", *want)
        assert sample.candidates[0].derivation == [(want, want)] == sample.candidates[1].derivation[1:]


# Mixed case, Greek capitals with a final sigma, and segments repeated across lines.
FUZZ_BASE = [
    "0 ||| the House is small ||| 0.5 -1 ||| [ das Haus # the House ] [ ist klein # is small ]",
    "0 ||| a house is small ||| 0.25 -2 ||| [ das # a ] [ Haus # house ] [ ist klein # is small ]",
    "1 ||| η ΟΔΟΣ ||| 1 2 ||| [ die Straße # η ΟΔΟΣ ]",
    "1 ||| the οδος ||| 1 3 ||| [ die # the ] [ Straße # ΟΔΟΣ ]",
    "0 ||| the house is small ||| 0 0 ||| [ das Haus # the House ] [ ist # is ] [ klein # small ]",
]


def _mutate_derivation(derivation: str, rng) -> str:
    """One seeded edit of a derivation field, of the kinds a hand-edited file shows."""
    kind = int(rng.integers(0, 5))
    if kind == 0:  # a bracket glued to its neighbour: "b]", "[c" or "]["
        old = [" ]", "[ ", "] ["][int(rng.integers(0, 3))]
        spots = [i for i in range(len(derivation)) if derivation.startswith(old, i)]
        if spots:
            i = spots[int(rng.integers(0, len(spots)))]
            return derivation[:i] + old.replace(" ", "") + derivation[i + len(old):]
        return derivation
    spaces = [i for i, c in enumerate(derivation) if c == " "]
    if kind == 1:  # doubled spaces and tabs
        i = spaces[int(rng.integers(0, len(spaces)))]
        return derivation[:i] + ["  ", "\t", " \t "][int(rng.integers(0, 3))] + derivation[i + 1:]
    if kind == 2:  # a stray "#", "[" or "]" inside a phrase
        i = spaces[int(rng.integers(0, len(spaces)))]
        return derivation[:i] + " " + "#[]"[int(rng.integers(0, 3))] + derivation[i:]
    tokens = derivation.split(" ")
    if kind == 3:  # an empty phrase: the tokens between "[" and "#", or "#" and "]", removed
        marks = [j for j, t in enumerate(tokens) if t in ("[", "#")]
        j = marks[int(rng.integers(0, len(marks)))]
        end = j + 1
        while end < len(tokens) and tokens[end] not in ("#", "]"):
            end += 1
        return " ".join(tokens[: j + 1] + tokens[end:])
    words = [j for j, t in enumerate(tokens) if t not in ("[", "#", "]")]  # kind 4: another case
    j = words[int(rng.integers(0, len(words)))]
    tokens[j] = [str.upper, str.lower, str.swapcase, str.title, lambda t: "ΟΔΟΣ"][int(rng.integers(0, 5))](tokens[j])
    return " ".join(tokens)


def _parse_outcome(path):
    """What ``parse_nbest`` makes of ``path``: its entries, or its error message and line."""
    try:
        parsed = corpus.parse_nbest(path)
    except corpus.CorpusError as exc:
        return str(exc), exc.line
    return {sent_id: [(e.tokens, e.features.tolist(), e.derivation) for e in entries]
            for sent_id, entries in parsed.items()}


def _strict_derivation(text, segments, shared, path, line):
    return corpus._parse_derivation(text, path, line)


class TestSharedSegments:
    def test_fuzzed_derivations_parse_as_the_strict_parser(self, tmp_path, monkeypatch):
        """Seeded edits of derivation fields: the same entries as parsing every line strictly, or the same error."""
        refused = accepted = 0
        for trial in range(400):
            rng = np.random.default_rng([20261019, trial])
            lines = FUZZ_BASE * 2
            sent_id, tokens, feats, derivation = lines[int(rng.integers(0, len(lines)))].split(" ||| ")
            for _ in range(int(rng.integers(1, 4))):
                derivation = _mutate_derivation(derivation, rng)
            mutated = " ||| ".join([sent_id, tokens, feats, derivation])
            # once or twice, so a second copy meets the segments the first one left
            for _ in range(int(rng.integers(1, 3))):
                lines.insert(int(rng.integers(0, len(lines) + 1)), mutated)
            path = tmp_path / f"{trial}.nbest"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got = _parse_outcome(path)
            with monkeypatch.context() as m:
                m.setattr(corpus, "_derivation", _strict_derivation)
                want = _parse_outcome(path)
            assert got == want, (trial, mutated)
            refused += isinstance(got, tuple)
            accepted += isinstance(got, dict)
        assert refused > 100 and accepted > 50

    def test_equal_pairs_and_phrases_are_one_object(self, tmp_path):
        text = (
            "0 ||| the house ||| 1 ||| [ das haus # the house ]\n"
            "0 ||| the House ||| 2 ||| [ das  Haus # the\thouse ]\n"
            "1 ||| a house a house ||| 3 ||| [ ein # a ] [ haus # house ] [ ein # a ] [ haus # house ]\n"
            "1 ||| house ||| 4 ||| [ das haus # house ]\n"
            "1 ||| the house a ||| 5 ||| [ das haus # the house ]\t[ ein # a ]\n"  # parsed whole
        )
        parsed = corpus.parse_nbest(_write(tmp_path, "nbest", text))
        pairs = [pair for entries in parsed.values() for entry in entries for pair in entry.derivation]
        phrases = [phrase for pair in pairs for phrase in pair]
        assert len(set(pairs)) == 4 < len(pairs)
        assert len({id(pair) for pair in pairs}) == len(set(pairs))
        assert len({id(phrase) for phrase in phrases}) == len(set(phrases)) == 6

    def test_nothing_is_kept_from_one_file_to_the_next(self, tmp_path):
        def module_state():
            return {name: len(value) for name, value in vars(corpus).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))}

        path = _write(tmp_path, "nbest", NBEST_SMALL)
        before = module_state()
        first, second = corpus.parse_nbest(path), corpus.parse_nbest(path)
        assert module_state() == before
        for a, b in zip(first[0], second[0]):
            assert a.derivation == b.derivation
            assert all(p is not q and p.source is not q.source for p, q in zip(a.derivation, b.derivation))


class TestSentenceIds:
    @pytest.mark.parametrize("text", ["0", "7", "0012", "123456789"])
    def test_ascii_digits_are_read(self, text):
        assert corpus.parse_sentence_id(text, "f", 1) == int(text)

    @pytest.mark.parametrize("text", ["1_0", "-1", "+1", "1.0", "", "٣", "１", "1e3", "0x1"])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(corpus.CorpusError, match=rf"^f:3: bad sentence id {re.escape(repr(text))}$"):
            corpus.parse_sentence_id(text, "f", 3)


class TestReals:
    """Weights and feature values are ASCII reals without ``_``, as ``repr(float)`` writes them."""

    # Each of these is a real to ``float`` alone: 10.0, 3.0, 1.0, 1e10, 1000.5, 3.5.
    FLOAT_ALONE = ["1_0", "٣", "１", "1e1_0", "1_000.5", "٣.٥"]

    @pytest.mark.parametrize("text", FLOAT_ALONE)
    def test_weights_that_only_float_reads_are_refused(self, tmp_path, text):
        path = _write(tmp_path, "lambda", f"{text}\n0.1\n1.0\n")
        with pytest.raises(corpus.CorpusError, match=rf"^{re.escape(path)}:1: bad weight {re.escape(repr(text))}$"):
            corpus.load_lambda(path)

    @pytest.mark.parametrize("text", FLOAT_ALONE)
    def test_features_that_only_float_reads_are_refused(self, tmp_path, text):
        path = _write(tmp_path, "nbest", NBEST_SMALL + f"0 ||| the ||| 0.5 {text} ||| [ das # the ]\n")
        message = f"bad feature value in {f'0.5 {text}'!r}"
        with pytest.raises(corpus.CorpusError, match=rf"^{re.escape(path)}:3: {re.escape(message)}$"):
            corpus.parse_nbest(path)

    def test_every_form_repr_writes_is_read(self, tmp_path):
        values = [1e-05, -2.0, 0.5, 1e300, -0.0, 123456.789]
        path = _write(tmp_path, "lambda", "".join(f"{v!r}\n" for v in values) + "+.5\n3.\n-1E3\n")
        assert corpus.load_lambda(path).tolist() == values + [0.5, 3.0, -1000.0]
        nbest = NBEST_SMALL.replace("0.5 -1.0", "1e-05 -1E3", 1)
        assert corpus.parse_nbest(_write(tmp_path, "nbest", nbest))[0][0].features.tolist() == [1e-05, -1000.0]

    def test_features_hold_the_bytes_float_reads(self, tmp_path):
        fields = ["0.1 -0.0", "5e-324 1e308", "0.30000000000000004 +.5", "3. -1E3",
                  "123456789012345678901234567890 2.2250738585072014e-308", "7 1e-05"]
        text = "".join(f"{i} ||| the ||| {feats} ||| [ das # the ]\n" for i, feats in enumerate(fields))
        parsed = corpus.parse_nbest(_write(tmp_path, "nbest", text))
        for i, feats in enumerate(fields):
            (entry,) = parsed[i]
            assert entry.features.dtype == np.float64 and entry.features.shape == (2,)
            assert entry.features.tobytes() == np.array([float(v) for v in feats.split()]).tobytes()


# Each line-oriented input: its reader, a valid line, a line it refuses with
# the message, the field count of its records (None for plain lines), and
# its message for a file without records (None: may be empty).
_READERS = {
    "references": (corpus.load_references, "0 ||| das haus ||| the house", "x ||| a ||| b",
                   "bad sentence id 'x'", "3", "reference file is empty"),
    "nbest": (corpus.parse_nbest, "0 ||| the house ||| 0.5 -1.0 ||| [ das haus # the house ]",
              "0 ||| the ||| 0.5 nan ||| [ das # the ]", "features must be a non-empty list of finite reals", "4",
              "N-best file is empty"),
    "hypotheses": (cli._read_hypotheses, "0 ||| the house", "00 ||| the house", "duplicate sentence id 0",
                   "at least 2", "file is empty"),
    "weights": (corpus.load_lambda, "0.5", "0.5 1.0", "bad weight '0.5 1.0'", None,
                "weight file must contain finite reals"),
    "config": (cli._load_config_file, "seed = 3", "seed", "expected key=value", None, None),
}


def _read_as(tmp_path, kind, lines, newline="\n"):
    """What the reader of ``kind`` makes of ``lines``, and the path it read."""
    path = tmp_path / kind
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
    return _READERS[kind][0](str(path)), str(path)


@pytest.mark.parametrize("kind", list(_READERS))
class TestReaders:
    """The one line source and the one record reader, as each input reads through them."""

    def test_blank_lines_are_skipped_and_counted(self, tmp_path, kind):
        _, good, bad, message, *_ = _READERS[kind]
        alone, _ = _read_as(tmp_path, kind, [good])
        padded, path = _read_as(tmp_path, kind, ["", "   ", "\t", good, "", " \t "])
        assert repr(padded) == repr(alone)
        with pytest.raises(corpus.CorpusError) as caught:
            _read_as(tmp_path, kind, ["", "   ", "\t", good, "", " \t ", bad])
        assert str(caught.value) == f"{path}:7: {message}"

    def test_crlf_reads_as_lf(self, tmp_path, kind):
        _, good, bad, message, *_ = _READERS[kind]
        lines = ["", good, "  "]
        assert repr(_read_as(tmp_path, kind, lines, "\r\n")[0]) == repr(_read_as(tmp_path, kind, lines)[0])
        for newline in ("\n", "\r\n"):
            with pytest.raises(corpus.CorpusError, match=rf":4: {re.escape(message)}$"):
                _read_as(tmp_path, kind, [*lines, bad], newline)

    def test_blank_file_is_refused_by_name(self, tmp_path, kind):
        *_, empty = _READERS[kind]
        for lines in ([], ["", " ", "\t"]):
            if empty is None:  # a config file may be empty
                assert _read_as(tmp_path, kind, lines)[0] == {}
                continue
            with pytest.raises(corpus.CorpusError) as caught:
                _read_as(tmp_path, kind, lines)
            assert str(caught.value) == f"{tmp_path / kind}: {empty}"


@pytest.mark.parametrize(
    "kind, parts", [("references", 2), ("references", 4), ("nbest", 1), ("nbest", 5), ("hypotheses", 1)]
)
def test_wrong_field_count_names_the_line(tmp_path, kind, parts):
    _, good, _, _, n_fields, _ = _READERS[kind]
    bad = " ||| ".join(["0"] + ["a"] * (parts - 1))
    with pytest.raises(corpus.CorpusError) as caught:
        _read_as(tmp_path, kind, [good, "", bad])
    assert str(caught.value) == f"{tmp_path / kind}:3: expected {n_fields} '|||' fields, got {parts}"


def _assert_labelled_as_the_oracle(samples):
    for sample in samples:
        n = len(sample.candidates)
        assert sample.stats.shape == (n, 10) and sample.stats.dtype == np.int64
        assert sample.sbleus.shape == (n,) and sample.sbleus.dtype == np.float64
        for i, entry in enumerate(sample.candidates):
            assert tuple(sample.stats[i].tolist()) == ref_bleu_stats(sample.reference, entry.tokens)
            assert sample.sbleus[i] == bleu.sentence_bleu(sample.reference, entry.tokens)
            assert abs(sample.sbleus[i] - ref_sentence_bleu(sample.reference, entry.tokens)) <= 1e-12


@pytest.fixture
def stats_rows_calls(monkeypatch):
    """Candidate counts of each ``bleu.stats_rows`` call; ``bleu.bleu_stats`` refuses to run."""
    calls = []
    stats_rows = bleu.stats_rows

    def counted(references, candidate_lists):
        rows = stats_rows(references, candidate_lists)
        calls.append(len(rows))
        return rows

    def refuse(reference, candidate):
        raise AssertionError("a candidate labelled on its own")

    monkeypatch.setattr(bleu, "stats_rows", counted)
    monkeypatch.setattr(bleu, "bleu_stats", refuse)
    return calls


def _assert_scored_row_by_row(samples):
    """Each label is ``sentence_bleu_from_stats`` of its own row, bit for bit."""
    for sample in samples:
        want = [bleu.sentence_bleu_from_stats(row) for row in sample.stats.tolist()]
        assert sample.sbleus.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestLabels:
    def test_repeated_rows_are_labelled_as_each_row_alone(self, tmp_path):
        refs, nbest, _ = synth.synthgen(synth.SynthSpec(sentences=20, candidates=30, noise=0.5, seed=3), tmp_path)
        samples = corpus.load_samples(nbest, refs)
        rows = np.concatenate([s.stats for s in samples])
        assert len(np.unique(rows, axis=0)) < len(rows) // 2
        _assert_scored_row_by_row(samples)

    def test_distinct_rows_are_labelled_as_each_row_alone(self, tmp_path):
        words = "the house is small and old".split()
        text = "".join(f"{i} ||| {' '.join(words[:n])} ||| 0.5 ||| [ f # {' '.join(words[:n])} ]\n"
                       for i in range(2) for n in range(1, len(words) + 1))
        refs = "0 ||| f ||| the house is small\n1 ||| f ||| house is small and old\n"
        samples = corpus.load_samples(_write(tmp_path, "n", text), _write(tmp_path, "r", refs))
        rows = np.concatenate([s.stats for s in samples])
        assert len(np.unique(rows, axis=0)) == len(rows) == 12
        _assert_scored_row_by_row(samples)

    def test_loaded_candidates_carry_the_oracle_rows(self, tmp_path):
        refs, nbest, _ = synth.synthgen(synth.SynthSpec(sentences=20, candidates=6, seed=3), tmp_path)
        _assert_labelled_as_the_oracle(corpus.load_samples(nbest, refs))

    def test_each_file_is_labelled_in_one_call(self, tmp_path, stats_rows_calls):
        refs, nbest, _ = synth.synthgen(synth.SynthSpec(sentences=20, candidates=6, seed=3), tmp_path)
        stats_rows_calls.clear()
        references = corpus.load_references(refs)
        loaded = [corpus.load_nbest(nbest, references) for _ in range(2)]
        n = sum(len(s.candidates) for s in loaded[0])
        assert stats_rows_calls == [n, n]
        stats_rows_calls.clear()
        samples, _ = synth.generate(synth.SynthSpec(sentences=20, candidates=6, seed=3))
        assert stats_rows_calls == [sum(len(s.candidates) for s in samples)]

    def test_generated_candidates_carry_the_oracle_rows(self):
        samples, _ = synth.generate(synth.SynthSpec(sentences=20, candidates=6, noise=0.6, seed=5))
        _assert_labelled_as_the_oracle(samples)

    def test_deduplicated_candidates_carry_the_oracle_rows(self, monkeypatch):
        samples, _ = synth.generate(synth.SynthSpec(sentences=20, candidates=6, noise=0.2, seed=6))
        with monkeypatch.context() as patch:
            patch.setattr(bleu, "stats_rows", lambda references, candidate_lists: pytest.fail("relabelled"))
            deduped = corpus.dedupe_candidates(samples)
        assert sum(len(s.candidates) for s in deduped) < sum(len(s.candidates) for s in samples)
        _assert_labelled_as_the_oracle(deduped)

    def test_sample_built_directly_labels_itself(self, stats_rows_calls):
        entries = [corpus.NBestEntry(tokens, np.zeros(1), [corpus.PhrasePair(("f",), tokens)])
                   for tokens in (("The", "house"), ("a", "house"), ("xyz",))]
        sample = corpus.TrainingSample(0, ("das", "haus"), ("the", "House"), entries)
        assert stats_rows_calls == [3]
        reference = sample.reference
        assert [tuple(row) for row in sample.stats.tolist()] == [ref_bleu_stats(reference, e.tokens) for e in entries]
        oracle = [ref_sentence_bleu(reference, e.tokens) for e in entries]
        assert sample.sbleus.tolist() == pytest.approx(oracle, abs=1e-12)
        with pytest.raises(ValueError, match="stats of shape"):
            corpus.TrainingSample(0, ("das", "haus"), ("the", "house"), entries, sample.stats[:2])

    def test_sample_without_candidates_has_empty_labels(self):
        sample = corpus.TrainingSample(0, ("a",), ("a",), [])
        assert sample.stats.shape == (0, 10) and sample.stats.dtype == np.int64
        assert sample.sbleus.shape == (0,) and sample.sbleus.dtype == np.float64


class TestRoundTrip:
    def test_nbest_round_trip(self, tmp_path, rng):
        samples = make_random_corpus(rng, n_samples=3)
        nbest = tmp_path / "nbest.txt"
        refs = tmp_path / "refs.txt"
        corpus.save_nbest(samples, nbest)
        corpus.save_references(samples, refs)
        reloaded = corpus.load_samples(str(nbest), str(refs))
        assert samples_equal(samples, reloaded)

    def test_lambda_round_trip(self, tmp_path, rng):
        lam = rng.normal(size=4)
        path = tmp_path / "lambda.txt"
        corpus.save_lambda(lam, path)
        back = corpus.load_lambda(path, expected_len=4)
        assert np.array_equal(lam, back)
        with pytest.raises(corpus.CorpusError, match="expected 3 weights"):
            corpus.load_lambda(path, expected_len=3)

    def test_vocabulary_round_trip(self, tmp_path, rng):
        vocab = corpus.build_vocabulary(make_random_corpus(rng))
        path = tmp_path / "vocab.txt"
        corpus.save_vocabulary(vocab, path)
        back = corpus.load_vocabulary(path)
        assert back.tokens == vocab.tokens
        assert all(back.index[t] == vocab.index[t] for t in vocab.tokens)


class TestVocabulary:
    def test_single_token_reserves_unk(self):
        sample = corpus.TrainingSample(0, ("a",), ("a",), [])
        vocab = corpus.build_vocabulary([sample])
        assert len(vocab) == 2
        assert vocab.tokens[0] == corpus.UNK_TOKEN
        assert vocab.token_id("a") == 1

    def test_deterministic(self, rng):
        samples = make_random_corpus(rng)
        v1 = corpus.build_vocabulary(samples)
        v2 = corpus.build_vocabulary(samples)
        assert v1.tokens == v2.tokens

    def test_shuffled_corpus_same_token_set(self, rng):
        samples = make_random_corpus(rng, n_samples=5)
        shuffled = [samples[i] for i in rng.permutation(len(samples))]
        v1 = corpus.build_vocabulary(samples)
        v2 = corpus.build_vocabulary(shuffled)
        assert set(v1.tokens) == set(v2.tokens)

    def test_unknown_tokens_map_to_unk(self, rng):
        vocab = corpus.build_vocabulary(make_random_corpus(rng))
        assert vocab.token_id("never-seen-token") == 0

    def test_bijection(self, rng):
        vocab = corpus.build_vocabulary(make_random_corpus(rng))
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus.build_vocabulary([])

    def test_load_skips_blank_lines_and_refuses_tokens_with_whitespace(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<unk>\n\nthe\n\nhouse\n")
        assert corpus.load_vocabulary(path).tokens == ("<unk>", "the", "house")
        for bad in ("the ", "house\tbig", "\u2003"):
            path.write_text(f"<unk>\n\n{bad}\n")
            with pytest.raises(corpus.CorpusError, match="^" + re.escape(f"{path}:3: token {bad!r} holds whitespace")):
                corpus.load_vocabulary(path)


class TestPhrasePairs:
    def test_repeated_pair_in_one_derivation(self):
        pair = corpus.PhrasePair(("f1",), ("e1",))
        entry = corpus.NBestEntry(("e1", "e1"), np.zeros(1), [pair, pair])
        sample = corpus.TrainingSample(0, ("f1", "f1"), ("e1", "e1"), [entry])
        assert corpus.collect_phrase_pairs([sample]) == {pair: 2}

    def test_pair_shared_across_candidates(self):
        pair = corpus.PhrasePair(("f1",), ("e1",))
        entries = [
            corpus.NBestEntry(("e1",), np.zeros(1), [pair]),
            corpus.NBestEntry(("e1",), np.ones(1), [pair]),
        ]
        sample = corpus.TrainingSample(0, ("f1",), ("e1",), entries)
        assert corpus.collect_phrase_pairs([sample]) == {pair: 2}

    def test_counts_match_brute_force(self, rng):
        samples = make_random_corpus(rng, n_samples=5)
        counted = corpus.collect_phrase_pairs(samples)
        brute: dict[corpus.PhrasePair, int] = {}
        for sample in samples:
            for entry in sample.candidates:
                for pair in entry.derivation:
                    brute[pair] = brute.get(pair, 0) + 1
        assert counted == brute
        total = sum(len(e.derivation) for s in samples for e in s.candidates)
        assert sum(counted.values()) == total

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError, match="phrases must be non-empty"):
            corpus.PhrasePair((), ("e",))

    def test_pair_is_the_plain_tuple(self):
        pair = corpus.PhrasePair(("f1", "f2"), ("e1",))
        plain = (("f1", "f2"), ("e1",))
        assert pair == plain and hash(pair) == hash(plain)
        assert (pair.source, pair.target) == plain
        assert {plain: 1}[pair] == 1 and {pair: 2}[plain] == 2


def _line_loop_outcome(path, monkeypatch):
    """``_parse_outcome`` with every block read by the line loop, as if there were no column pass."""
    with monkeypatch.context() as m:
        m.setattr(corpus._NBestBlocks, "columns", lambda self, texts: None)
        return _parse_outcome(path)


def _generated_lines(tmp_path, n_blocks, seed):
    """The lines of a generated N-best file of ``n_blocks`` * ``LINE_BLOCK`` lines."""
    spec = synth.SynthSpec(sentences=n_blocks * corpus.LINE_BLOCK // 8, candidates=8, seed=seed)
    _, nbest, _ = synth.synthgen(spec, tmp_path / f"gen{seed}")
    with open(nbest, encoding="utf-8") as fh:
        return nbest, fh.read().splitlines()


def _edit_field(i, edit):
    """An edit of field ``i`` of one line: ``edit(text, rng)`` is the field's new text."""
    def apply(lines, at, rng):
        fields = lines[at].split(" ||| ")
        fields[i] = edit(fields[i], rng)
        lines[at] = " ||| ".join(fields)
    return apply


def _pick(*texts):
    return lambda text, rng: texts[int(rng.integers(0, len(texts)))]


def _feature(*texts):
    """One feature value replaced by one of ``texts``."""
    def edit(text, rng):
        values = text.split()
        values[int(rng.integers(0, len(values)))] = texts[int(rng.integers(0, len(texts)))]
        return " ".join(values)
    return _edit_field(2, edit)


def _other_count(text, rng, fewer=None):
    values = text.split()
    if fewer is None:
        fewer = len(values) > 1 and rng.random() < 0.5
    return " ".join(values[:-1] if fewer else values + ["0.5"])


def _count_from_here(lines, at, rng):
    """Every line from ``at`` on with one feature more, or every one with one fewer: blocks of their own count."""
    fewer = bool(rng.random() < 0.5)
    for i in range(at, len(lines)):
        _edit_field(2, lambda text, rng: _other_count(text, rng, fewer))(lines, i, rng)


def _separators(lines, at, rng):
    fields = lines[at].split(" ||| ")
    if rng.random() < 0.5:  # a missing '|||': two neighbouring fields joined
        j = int(rng.integers(0, 3))
        fields[j : j + 2] = [fields[j] + " " + fields[j + 1]]
    else:  # an extra one, between two fields or at either end
        fields.insert(int(rng.integers(0, 5)), ["", "x", "0.5", "[ a # b ]"][int(rng.integers(0, 4))])
    lines[at] = " ||| ".join(fields)


def _blank_lines(lines, at, rng):
    for _ in range(int(rng.integers(1, 4))):
        lines.insert(at, ["", " ", "\t", " \t "][int(rng.integers(0, 4))])


# Seeded edits of the fields the column pass decides, each with whether the
# line loop refuses the edited line.
COLUMN_CASES = {
    "sentence id": (_edit_field(0, _pick("1_0", "٣", "-1", "+1", "１")), True),
    "padded sentence id": (_edit_field(0, lambda text, rng: f" 00{text}\t"), False),
    "empty candidate": (_edit_field(1, _pick("", " ", "\t")), True),
    "nan": (_feature("nan", "-NaN"), True),
    "inf": (_feature("inf", "-inf", "Infinity"), True),
    "1e999": (_feature("1e999", "-1e999"), True),
    "1_0": (_feature("1_0", "1e1_0"), True),
    "+.5": (_feature("+.5", "-.5e-3"), False),
    "non-ASCII digit": (_feature("٣", "１", "٣.٥"), True),
    "non-ASCII space around the features": (_edit_field(2, lambda text, rng: f"\u00a0{text}\u2003"), False),
    "count on one line": (_edit_field(2, _other_count), True),
    "count from a line on": (_count_from_here, True),
    "separators": (_separators, True),
    "blank lines": (_blank_lines, False),
}


class TestColumnPass:
    """Each block's column pass gives what the line loop gives over the whole file: its entries or its error."""

    @pytest.mark.parametrize("case", list(COLUMN_CASES))
    def test_edits_around_a_block_boundary_read_as_the_line_loop(self, tmp_path, monkeypatch, case):
        edit, refused = COLUMN_CASES[case]
        _, base = _generated_lines(tmp_path, 2, seed=7)
        block = corpus.LINE_BLOCK
        for trial, at in enumerate([block - 1, block, block + 1, 2 * block - 1]):  # lines 512, 513, 514, 1024
            rng = np.random.default_rng([20261022, list(COLUMN_CASES).index(case), trial])
            lines = list(base)
            edit(lines, at, rng)
            newline = ["\n", "\r\n"][int(rng.integers(0, 2))]
            path = tmp_path / f"{trial}.nbest"
            path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
            got = _parse_outcome(path)
            assert got == _line_loop_outcome(path, monkeypatch), (case, at, newline)
            if refused:
                assert got[1] == at + 1, (case, at, got)
            else:
                assert isinstance(got, dict), (case, at, got)

    def test_a_regular_file_never_reaches_the_line_loop(self, tmp_path, monkeypatch):
        path, _ = _generated_lines(tmp_path, 3, seed=8)
        want = _line_loop_outcome(path, monkeypatch)
        monkeypatch.setattr(corpus._NBestBlocks, "lines", None)
        assert _parse_outcome(path) == want


def _transient_peak(path):
    """The peak of memory ``parse_nbest(path)`` allocates, less what its result keeps."""
    tracemalloc.start()
    try:
        parsed = corpus.parse_nbest(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed
    return peak - kept


def test_transient_memory_grows_with_the_block_not_the_file(tmp_path, monkeypatch):
    """Files of 4 and 16 blocks: the larger one's transient peak is not much above the smaller one's.

    Duplicates collapse once the whole file is read, so a dropped duplicate
    would count as transient and grow with the file however its lines are
    read; every candidate is kept here, so the peak is the reading's own.
    """
    monkeypatch.setattr(corpus, "_first_occurrences", lambda entries: range(len(entries)))
    small, _ = _generated_lines(tmp_path / "small", 4, seed=9)
    large, _ = _generated_lines(tmp_path / "large", 16, seed=9)
    _transient_peak(small)  # anything allocated once per process is allocated here
    assert _transient_peak(large) < 1.5 * _transient_peak(small)


def test_vocabulary_reads_every_token_of_a_corpus_whose_targets_differ_from_its_tokens(rng):
    """Repeated pairs add their phrases once; candidate tokens are read whether or not the targets match them."""
    samples = make_random_corpus(rng, n_samples=6, max_candidates=5, n_tokens=12)
    pair = corpus.PhrasePair(("only-source",), ("only-target",))
    for i, sample in enumerate(samples):
        for entry in sample.candidates:
            entry.tokens = (f"tok{i}", *entry.tokens[::-1])
            entry.derivation = [pair, *entry.derivation, pair]
    every_token = [corpus.UNK_TOKEN]
    for sample in samples:
        every_token += [*sample.source, *sample.reference]
        for entry in sample.candidates:
            every_token += [*entry.tokens, *(tok for p in entry.derivation for phrase in p for tok in phrase)]
    assert corpus.build_vocabulary(samples).tokens == tuple(dict.fromkeys(every_token))
