"""End-to-end walkthrough: generate data, train, rerank, tune weights on dev, evaluate.

Run from the repository root:

    python demos/run_pipeline.py

Everything is seeded, so the numbers printed here come out the same on every
run.  The whole script takes well under a minute.
"""

import numpy as np

from semphrase import corpus, model, objective, rerank, synth, trainer

# ---------------------------------------------------------------------------
# 1. A synthetic reranking task with planted semantics.
#
# Five "concepts", each owning a synonym set in both languages.  References
# always pick correct-concept target phrases; candidates corrupt phrases at a
# 30% rate.  The baseline features are only mildly informative, so consistent
# gains have to come from the learned phrase similarity.
# ---------------------------------------------------------------------------
spec = synth.SynthSpec(concepts=5, sentences=200, candidates=8, noise=0.3, seed=7)
samples, lam = synth.generate(spec)
samples = corpus.dedupe_candidates(samples)
n_cands = sum(len(s.candidates) for s in samples)
print(f"corpus: {len(samples)} sentences, {n_cands} candidates after deduplication")

vocab = corpus.build_vocabulary(samples)
pairs = corpus.collect_phrase_pairs(samples)
print(f"vocabulary: {len(vocab)} tokens; phrase table: {len(pairs)} unique pairs")

# ---------------------------------------------------------------------------
# 2. Where do we start?  With random projections the expected sentence BLEU
# of the lists is governed by the baseline features alone.
# ---------------------------------------------------------------------------
params0 = model.init_params(len(vocab), k1=100, k2=100, seed=3)
lam_train = lam.copy()
lam_train[-1] = 1.0
print(f"initial expected BLEU: {objective.corpus_xbleu(samples, params0, lam_train, vocab):.4f}")

# ---------------------------------------------------------------------------
# 3. Batch training.  The loss is the negative mean expected BLEU and every
# accepted quasi-Newton step lowers it, so the trace below is monotone.
# ---------------------------------------------------------------------------
config = trainer.TrainConfig(max_iterations=100, seed=3)
result = trainer.train(samples, config, lam)
for row in result.log.rows[:3] + result.log.rows[-2:]:
    print(f"  iter {row.iteration:3d}  loss {row.loss:+.6f}  xbleu {row.xbleu:.4f}  "
          f"|grad| {row.grad_norm:.2e}")
print(f"stopped: {result.log.stop_reason}")

# ---------------------------------------------------------------------------
# 4. Rerank a held-out corpus from a fresh seed.  The phrase inventory is
# seed-independent, so the trained model transfers.
# ---------------------------------------------------------------------------
held, _ = synth.generate(synth.SynthSpec(concepts=5, sentences=200, candidates=8, noise=0.3, seed=101))
held = corpus.dedupe_candidates(held)
scored = rerank.rerank(held, result.params, lam, result.vocab)
print(f"held-out baseline BLEU {scored.baseline_bleu:.4f}")
print(f"held-out reranked BLEU {scored.reranked_bleu:.4f}")
print(f"held-out oracle window [{scored.oracle_worst_bleu:.4f}, {scored.oracle_best_bleu:.4f}]")

# ---------------------------------------------------------------------------
# 5. Tune the log-linear weights on dev corpora from further seeds: coordinate
# ascent on dev corpus BLEU of the argmax selection, never worse than the
# starting point on dev.  ``objective.score`` compiles and scores a dev corpus
# once, and ``trainer.tune`` reports its BLEU before and after.  The held-out
# corpus plays no part in tuning, so its BLEU with each dev set's weights
# shows whether the dev gain carries over; with 200 dev sentences it need not.
# ---------------------------------------------------------------------------
for dev_seed in range(102, 107):
    dev, _ = synth.generate(synth.SynthSpec(concepts=5, sentences=200, candidates=8, noise=0.3, seed=dev_seed))
    dev = corpus.dedupe_candidates(dev)
    tuned, dev_before, dev_after = trainer.tune(*objective.score(dev, result.params, result.vocab, lam.size), lam)
    retuned = rerank.rerank(held, result.params, tuned, result.vocab)
    print(f"dev seed {dev_seed}: weights {np.round(tuned, 3)}, dev BLEU {dev_before:.4f} -> {dev_after:.4f}, "
          f"held-out reranked BLEU {scored.reranked_bleu:.4f} -> {retuned.reranked_bleu:.4f}")
