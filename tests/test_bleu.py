"""BLEU implementation against hand values, invariants, and the independent oracle."""

import math

import numpy as np
import pytest

from semphrase import bleu

from bleu_reference import ref_bleu_stats, ref_corpus_bleu, ref_sentence_bleu


def _random_sentence(rng, tokens, lo=1, hi=9):
    return tuple(tokens[int(rng.integers(0, len(tokens)))] for _ in range(int(rng.integers(lo, hi))))


class TestSentenceBleu:
    def test_exact_match_is_one(self):
        ref = "the cat sat on the mat".split()
        assert bleu.sentence_bleu(ref, ref) == 1.0

    def test_short_exact_match_is_one(self):
        assert bleu.sentence_bleu(["hello"], ["hello"]) == 1.0
        assert bleu.sentence_bleu(["a", "b"], ["a", "b"]) == 1.0

    def test_no_overlap_is_zero(self):
        assert bleu.sentence_bleu("a b c d".split(), "x y z w".split()) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            bleu.sentence_bleu([], ["a"])

    def test_four_of_five_prefix(self):
        # All n-gram precisions are perfect after smoothing; only the brevity
        # penalty bites: exp(1 - 5/4).
        got = bleu.sentence_bleu("a b c d e".split(), "a b c d".split())
        assert got == pytest.approx(math.exp(-0.25), abs=1e-15)
        assert got == pytest.approx(ref_sentence_bleu("a b c d e".split(), "a b c d".split()), abs=1e-12)

    def test_case_insensitive(self):
        assert bleu.sentence_bleu("The Cat".split(), "the cat".split()) == 1.0

    def test_positive_with_any_unigram_match(self, rng):
        tokens = [f"w{i}" for i in range(6)]
        for _ in range(200):
            ref = _random_sentence(rng, tokens)
            cand = _random_sentence(rng, tokens)
            score = bleu.sentence_bleu(ref, cand)
            assert 0.0 <= score <= 1.0
            if set(ref) & set(cand):
                assert score > 0.0
            else:
                assert score == 0.0

    def test_matches_reference_oracle(self, rng):
        tokens = [f"w{i}" for i in range(7)]
        for _ in range(300):
            ref = _random_sentence(rng, tokens)
            cand = _random_sentence(rng, tokens)
            assert bleu.sentence_bleu(ref, cand) == pytest.approx(
                ref_sentence_bleu(ref, cand), abs=1e-12
            )


class TestCorpusBleu:
    def test_all_perfect(self):
        pairs = [("a b c d e".split(),) * 2, ("x y z w".split(),) * 2]
        assert bleu.corpus_bleu(pairs) == 1.0

    def test_single_pair_equals_unsmoothed_sentence(self):
        ref = "a b c d e f".split()
        # no matching 4-gram at all: unsmoothed corpus BLEU collapses to 0
        assert bleu.corpus_bleu([(ref, "a b x d e y".split())]) == 0.0
        # one trailing substitution, by hand: p1=5/6, p2=4/5, p3=3/4, p4=2/3
        got = bleu.corpus_bleu([(ref, "a b c d e x".split())])
        expected = (5 / 6 * 4 / 5 * 3 / 4 * 2 / 3) ** 0.25
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bleu.corpus_bleu([])

    def test_matches_reference_oracle(self, rng):
        tokens = [f"w{i}" for i in range(8)]
        for _ in range(30):
            pairs = [
                (_random_sentence(rng, tokens, 4, 10), _random_sentence(rng, tokens, 4, 10))
                for _ in range(10)
            ]
            assert bleu.corpus_bleu(pairs) == pytest.approx(ref_corpus_bleu(pairs), abs=1e-12)

    def test_rows_match_reference_oracle(self, rng):
        tokens = ["a", "b", "c"]
        corpora = [
            [(_random_sentence(rng, tokens, 1, 12), _random_sentence(rng, tokens, 1, 12)) for _ in range(3)]
            for _ in range(40)
        ]
        sums = [np.sum([bleu.bleu_stats(r, c) for r, c in pairs], axis=0) for pairs in corpora]
        scores = bleu.corpus_bleu_rows(sums)
        assert 0.0 in scores and scores.max() > 0.0  # rows with a zero count and rows without
        for pairs, score in zip(corpora, scores):
            assert score == pytest.approx(ref_corpus_bleu(pairs), abs=1e-12)

    def test_permutation_invariant(self, rng):
        tokens = [f"w{i}" for i in range(6)]
        pairs = [
            (_random_sentence(rng, tokens, 4, 9), _random_sentence(rng, tokens, 4, 9))
            for _ in range(8)
        ]
        before = bleu.corpus_bleu(pairs)
        perm = [pairs[i] for i in rng.permutation(len(pairs))]
        assert bleu.corpus_bleu(perm) == pytest.approx(before, abs=0.0)

    def test_replacing_candidate_with_reference_never_hurts(self, rng):
        tokens = [f"w{i}" for i in range(6)]
        for _ in range(50):
            pairs = [
                (_random_sentence(rng, tokens, 4, 9), _random_sentence(rng, tokens, 4, 9))
                for _ in range(6)
            ]
            base = bleu.corpus_bleu(pairs)
            idx = int(rng.integers(0, len(pairs)))
            promoted = list(pairs)
            promoted[idx] = (pairs[idx][0], pairs[idx][0])
            assert bleu.corpus_bleu(promoted) >= base - 1e-12


class TestBleuStats:
    def test_counts_are_consistent(self):
        row = bleu.bleu_stats("a b a".split(), "a a b b".split())
        assert len(row) == 2 * bleu.MAX_ORDER + 2
        assert all(isinstance(v, int) for v in row)
        matches, totals = row[: bleu.MAX_ORDER], row[bleu.MAX_ORDER : 2 * bleu.MAX_ORDER]
        assert row[-2] == 4  # candidate length
        assert row[-1] == 3  # reference length
        assert matches[0] == 3  # a a b (clipped: two a's, one b)
        assert totals == (4, 3, 2, 1)
        assert all(m <= t for m, t in zip(matches, totals))

    def test_corpus_from_stats_matches_direct(self, rng):
        tokens = [f"w{i}" for i in range(6)]
        pairs = [
            (_random_sentence(rng, tokens, 4, 9), _random_sentence(rng, tokens, 4, 9))
            for _ in range(7)
        ]
        stats = [bleu.bleu_stats(r, c) for r, c in pairs]
        assert bleu.corpus_bleu_from_stats(stats) == bleu.corpus_bleu(pairs)

    def test_rows_equal_oracle_with_repeated_ngrams(self, rng):
        for tokens in (["a", "b", "c"], ["a", "b", "c", "d"]):
            for _ in range(250):
                ref = _random_sentence(rng, tokens, 1, 13)
                cand = _random_sentence(rng, tokens, 0, 13)
                assert bleu.bleu_stats(ref, cand) == ref_bleu_stats(ref, cand)

    def test_rows_equal_oracle_at_every_candidate_length(self, rng):
        tokens = ["a", "b", "c"]
        for length in range(13):  # 0..3 are shorter than MAX_ORDER
            for _ in range(10):
                ref = _random_sentence(rng, tokens, 1, 13)
                cand = _random_sentence(rng, tokens, length, length + 1)
                assert bleu.bleu_stats(ref, cand) == ref_bleu_stats(ref, cand)

    def test_rows_equal_oracle_on_mixed_case(self, rng):
        tokens = ["a", "A", "b", "B"]
        for _ in range(100):
            ref = _random_sentence(rng, tokens, 1, 13)
            cand = _random_sentence(rng, tokens, 0, 13)
            row = bleu.bleu_stats(ref, cand)
            assert row == ref_bleu_stats(ref, cand)
            assert row == bleu.bleu_stats([t.upper() for t in ref], [t.lower() for t in cand])


class TestReferenceReuse:
    def test_interleaved_references_give_fresh_rows(self, rng):
        tokens = ["a", "b", "c"]
        ref_a, ref_b = ("a", "b", "a", "c", "b"), ("c", "c", "a")
        refs = (ref_a, ref_a, ref_b, ref_a)
        cands = [_random_sentence(rng, tokens, 0, 9) for _ in range(4)]
        reused = [bleu.bleu_stats(r, c) for r, c in zip(refs, cands)]
        assert reused == [ref_bleu_stats(r, c) for r, c in zip(refs, cands)]
        batched = bleu.stats_rows(refs, [[c] for c in cands])
        assert [tuple(row) for row in batched.tolist()] == reused
        grouped = bleu.stats_rows((ref_a, ref_b, ref_a), [cands[:2], [cands[2]], [cands[3]]])
        assert [tuple(row) for row in grouped.tolist()] == reused

    def test_mutated_list_reference_gives_the_new_answer(self):
        ref = ["a", "b", "c"]
        cand = ["a", "b", "d"]
        assert bleu.bleu_stats(ref, cand) == ref_bleu_stats(["a", "b", "c"], cand)
        ref[2] = "d"
        assert bleu.bleu_stats(ref, cand) == ref_bleu_stats(["a", "b", "d"], cand)
        assert bleu.sentence_bleu(ref, cand) == 1.0

    def test_empty_reference_always_raises(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="^reference must be non-empty$"):
                bleu.bleu_stats([], ["a"])
        assert bleu.bleu_stats(["a"], ["a"]) == ref_bleu_stats(["a"], ["a"])
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            bleu.bleu_stats((), ["a"])
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            bleu.stats_rows([("a",), (), ("b",)], [[("a",)], [], [("b",)]])
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            bleu.sentence_bleu([], [])


def _oracle_rows(references, candidate_lists):
    return [ref_bleu_stats(r, c) for r, cands in zip(references, candidate_lists) for c in cands]


def _boundary_corpus(rng):
    """Samples whose sentences, laid end to end, form reference n-grams across their boundaries."""
    words = ["a", "A", "b", "B", "c", "ΟΔΟΣ", "οδος", "Οδος", "é", "É"]
    references = [("x", "a", "b", "c", "d"), ("q", "a")]
    candidate_lists = [
        # "q a" ends the last reference and "b ..." opens the first candidate: "a b" spans them.
        [("b", "c", "w"), ("y", "a"), ("b", "c", "z"), ("y", "x"), ("a", "b", "c", "d"), ()],
        [("a",)],
    ]
    for _ in range(12):
        references.append(_random_sentence(rng, words, 1, 11))
        candidate_lists.append([_random_sentence(rng, words, 0, 14) for _ in range(int(rng.integers(0, 7)))])
    references.append(references[3])  # two samples with the same reference text
    candidate_lists.append([_random_sentence(rng, words, 0, 14) for _ in range(5)])
    candidate_lists[4] = [_random_sentence(rng, words, 1, 14)]  # a sample with one candidate
    candidate_lists[5] = []  # a sample with none
    return references, candidate_lists


class TestStatsRows:
    def test_rows_equal_oracle_across_sentence_boundaries(self, rng):
        references, candidate_lists = _boundary_corpus(rng)
        rows = bleu.stats_rows(references, candidate_lists)
        assert rows.dtype == np.int64 and rows.shape == (sum(map(len, candidate_lists)), 10)
        assert [tuple(row) for row in rows.tolist()] == _oracle_rows(references, candidate_lists)
        lengths = {len(c) for cands in candidate_lists for c in cands}
        assert {0, 1, 2, 3, 13} <= lengths
        # Spanning n-grams would have matched: "a b" and "a b c" across candidates 1 and 2.
        assert rows[1, 1] == 0 and rows[2, :3].tolist() == [2, 1, 0]

    def test_rows_do_not_depend_on_sample_order(self, rng):
        references, candidate_lists = _boundary_corpus(rng)
        rows = bleu.stats_rows(references, candidate_lists)
        ends = np.cumsum([len(cands) for cands in candidate_lists])
        blocks = np.split(rows, ends[:-1])
        for _ in range(5):
            order = rng.permutation(len(references))
            shuffled = bleu.stats_rows([references[i] for i in order], [candidate_lists[i] for i in order])
            got = np.split(shuffled, np.cumsum([len(candidate_lists[i]) for i in order])[:-1])
            for i, block in zip(order, got):
                assert np.array_equal(block, blocks[i])

    def test_no_floating_point_error_on_degenerate_candidates(self):
        references = [("a", "b", "c", "d", "e"), ("x",), ("x", "y")]
        candidate_lists = [
            [("p", "q", "r", "s", "t"), ("p",), ("p", "q"), ("a", "z", "q"), ("a",), ()],
            [("y",), ("x", "x", "x")],
            [(), ("y", "x")],
        ]
        with np.errstate(all="raise"):
            rows = bleu.stats_rows(references, candidate_lists)
            scores = [bleu.sentence_bleu_from_stats(row) for row in rows.tolist()]
        assert [tuple(row) for row in rows.tolist()] == _oracle_rows(references, candidate_lists)
        pairs = [(r, c) for r, cands in zip(references, candidate_lists) for c in cands]
        assert scores == pytest.approx([ref_sentence_bleu(r, c) if c else 0.0 for r, c in pairs], abs=1e-12)
        assert scores[0] == scores[1] == scores[2] == scores[5] == 0.0

    def test_empty_and_mismatched_inputs(self):
        assert bleu.stats_rows([], []).shape == (0, 10)
        assert bleu.stats_rows([("a",)], [[]]).shape == (0, 10)
        with pytest.raises(ValueError):
            bleu.stats_rows([("a",), ("b",)], [[("a",)]])

    def test_corpus_bleu_counts_in_one_call(self, rng, monkeypatch):
        tokens = [f"w{i}" for i in range(6)]
        pairs = [(_random_sentence(rng, tokens, 4, 9), _random_sentence(rng, tokens, 0, 9)) for _ in range(9)]
        want = bleu.corpus_bleu_from_stats([ref_bleu_stats(r, c) for r, c in pairs])
        calls = []
        stats_rows = bleu.stats_rows

        def counted(references, candidate_lists):
            calls.append(len(references))
            return stats_rows(references, candidate_lists)

        def refuse(reference, candidate):
            raise AssertionError("corpus BLEU counted one pair at a time")

        monkeypatch.setattr(bleu, "stats_rows", counted)
        monkeypatch.setattr(bleu, "bleu_stats", refuse)
        assert bleu.corpus_bleu(iter(pairs)) == want
        assert calls == [len(pairs)]
