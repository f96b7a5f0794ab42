"""Corpus parsing, persistence round trips, vocabulary, and phrase-pair counting."""

import numpy as np
import pytest

from semphrase import corpus

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
        for ea, eb in zip(sa.candidates, sb.candidates):
            if ea.tokens != eb.tokens or ea.derivation != eb.derivation:
                return False
            if not np.array_equal(ea.features, eb.features):
                return False
            if ea.sbleu != eb.sbleu:
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
        assert samples[0].candidates[0].sbleu == 1.0
        assert samples[0].candidates[1].features[1] == -2.0

    def test_derivation_mismatch_reports_line(self, tmp_path):
        bad = NBEST_SMALL + "0 ||| the house ||| 0.5 -1.0 ||| [ das haus # a house ]\n"
        with pytest.raises(corpus.CorpusError, match=r":3:.*concatenate"):
            corpus.load_samples(_write(tmp_path, "nbest", bad), _write(tmp_path, "refs", REFS_SMALL))

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

    def test_phrase_table_round_trip(self, tmp_path, rng):
        pairs = corpus.collect_phrase_pairs(make_random_corpus(rng))
        path = tmp_path / "table.txt"
        corpus.save_phrase_table(pairs, path)
        back = corpus.load_phrase_table(path)
        assert back == pairs


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
        with pytest.raises(ValueError):
            corpus.PhrasePair((), ("e",))
