"""Command-line entry points.

Subcommands: ``train``, ``rerank``, ``eval``, ``gradcheck``, ``synthgen``,
``tune-lambda``, ``export-embeddings``.  Every flag can also be supplied
through ``--config FILE`` holding flat ``key=value`` lines (keys are the long
flag names); explicit flags win over config values.  All randomness flows
from the ``--seed`` flag of the respective subcommand.

Exit codes: 0 success, 2 usage error, 3 missing input file, 4 malformed or
inconsistent data, 5 failed numerical check.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bleu, corpus, model, objective, rerank, synth, trainer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_DATA = 4
EXIT_CHECK_FAILED = 5


def _add_config_flag(sub):
    sub.add_argument("--config", help="flat key=value file supplying flag defaults")


def _add_corpus_flags(sub, role="training"):
    sub.add_argument("--nbest", required=True, help=f"{role} N-best file")
    sub.add_argument("--refs", required=True, help=f"{role} reference file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semphrase",
        description="Train bilingual phrase embeddings on N-best lists and rerank with them.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs = {}

    sub = subparsers.add_parser("train", help="fit the projection matrices on an N-best corpus")
    _add_corpus_flags(sub)
    sub.add_argument("--weights", required=True, help="baseline weight file (M+1 lines)")
    sub.add_argument("--out-model", required=True, help="where to write the trained model")
    sub.add_argument("--out-vocab", help="vocabulary file (default: <out-model>.vocab)")
    sub.add_argument("--log", help="write the per-iteration TSV log here")
    sub.add_argument("--iters", type=int, default=100, help="max optimizer iterations")
    sub.add_argument("--tol", type=float, default=1e-6, help="gradient infinity-norm tolerance")
    sub.add_argument("--k1", type=int, default=100, help="hidden layer width")
    sub.add_argument("--k2", type=int, default=100, help="output layer width")
    sub.add_argument(
        "--arch", choices=[model.ARCH_NONLINEAR, model.ARCH_LINEAR], default=model.ARCH_NONLINEAR
    )
    sub.add_argument(
        "--sim-mode",
        choices=[model.SIM_DOT, model.SIM_COSINE],
        help="similarity function (default: dot for nonlinear, cosine for linear)",
    )
    sub.add_argument("--word-level", action="store_true", help="aggregate word-word similarities")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1, help="ignored: training runs single-threaded")
    sub.add_argument("--lambda-feature", type=float, default=1.0, help="similarity feature weight during training")
    sub.add_argument("--weight-decay", type=float, default=0.0)
    sub.add_argument("--checkpoint-dir")
    sub.add_argument("--checkpoint-interval", type=int, default=0)
    sub.add_argument("--init-model", help="warm-start W1 from this model file")
    sub.add_argument("--resume", help="resume from this checkpoint file")
    sub.add_argument("--no-timing", action="store_true", help="log 0.0 wall seconds (reproducible logs)")
    _add_config_flag(sub)
    subs["train"] = sub

    sub = subparsers.add_parser("rerank", help="pick the best candidate per sentence")
    _add_corpus_flags(sub, role="test")
    sub.add_argument("--model", required=True, help="trained model file")
    sub.add_argument("--vocab", required=True, help="vocabulary file written at training time")
    sub.add_argument("--weights", required=True, help="weight file (M+1 lines)")
    sub.add_argument("--output", help="write selections here instead of stdout")
    sub.add_argument("--threads", type=int, default=1, help="ignored: reranking runs single-threaded")
    _add_config_flag(sub)
    subs["rerank"] = sub

    sub = subparsers.add_parser("eval", help="corpus BLEU of a hypothesis file against references")
    sub.add_argument("--hyp", required=True, help="hypothesis file (sent_id ||| ... ||| tokens)")
    sub.add_argument("--refs", required=True, help="reference file")
    _add_config_flag(sub)
    subs["eval"] = sub

    sub = subparsers.add_parser("gradcheck", help="compare the analytic gradient with finite differences")
    sub.add_argument("--nbest", help="optional N-best file (default: generated toy corpus)")
    sub.add_argument("--refs", help="reference file for --nbest")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--step", type=float, default=1e-5, help="central difference step")
    sub.add_argument("--tol", type=float, default=1e-5, help="max relative error allowed")
    sub.add_argument("--k1", type=int, default=3)
    sub.add_argument("--k2", type=int, default=2)
    sub.add_argument(
        "--arch", choices=[model.ARCH_NONLINEAR, model.ARCH_LINEAR], default=model.ARCH_NONLINEAR
    )
    sub.add_argument("--sim-mode", choices=[model.SIM_DOT, model.SIM_COSINE])
    sub.add_argument("--word-level", action="store_true")
    _add_config_flag(sub)
    subs["gradcheck"] = sub

    sub = subparsers.add_parser("synthgen", help="generate a synthetic reranking corpus")
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--concepts", type=int, default=5)
    sub.add_argument("--phrases-per-concept", type=int, default=3)
    sub.add_argument("--sentences", type=int, default=200)
    sub.add_argument("--phrases-per-sentence", type=int, default=4)
    sub.add_argument("--candidates", type=int, default=8)
    sub.add_argument("--noise", type=float, default=0.3)
    sub.add_argument("--feature-noise", type=float, default=0.35)
    sub.add_argument("--seed", type=int, default=0)
    _add_config_flag(sub)
    subs["synthgen"] = sub

    sub = subparsers.add_parser("tune-lambda", help="coordinate-ascent weight tuning on a dev set")
    _add_corpus_flags(sub, role="dev")
    sub.add_argument("--model", required=True)
    sub.add_argument("--vocab", required=True)
    sub.add_argument("--weights", required=True, help="starting weights (M+1 lines)")
    sub.add_argument("--out", required=True, help="where to write the tuned weights")
    _add_config_flag(sub)
    subs["tune-lambda"] = sub

    sub = subparsers.add_parser("export-embeddings", help="dump projected phrase vectors as text")
    sub.add_argument("--model", required=True)
    sub.add_argument("--vocab", required=True)
    sub.add_argument("--nbest", required=True, help="N-best file supplying the phrases")
    sub.add_argument("--out", help="output path (default: stdout)")
    _add_config_flag(sub)
    subs["export-embeddings"] = sub

    return parser, subs


def _load_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise corpus.CorpusError("expected key=value", path, lineno)
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _peek_config_path(argv) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _apply_config(sub, config: dict[str, str]) -> None:
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"unknown config key {key!r}")
        action = actions[dest]
        if isinstance(action.default, bool) or isinstance(action.const, bool):
            defaults[dest] = value.lower() in ("1", "true", "yes", "on")
        else:
            defaults[dest] = value  # argparse converts string defaults via the flag's type
        action.required = False
    sub.set_defaults(**defaults)


def _cmd_synthgen(args) -> int:
    spec = synth.SynthSpec(
        concepts=args.concepts,
        phrases_per_concept=args.phrases_per_concept,
        sentences=args.sentences,
        phrases_per_sentence=args.phrases_per_sentence,
        candidates=args.candidates,
        noise=args.noise,
        seed=args.seed,
        feature_noise=args.feature_noise,
    )
    refs_path, nbest_path, lambda_path = synth.synthgen(spec, args.out_dir)
    print(refs_path)
    print(nbest_path)
    print(lambda_path)
    return EXIT_OK


def _cmd_train(args) -> int:
    samples = corpus.load_samples(args.nbest, args.refs)
    lam = corpus.load_lambda(args.weights)
    config = trainer.TrainConfig(
        max_iterations=args.iters,
        tolerance=args.tol,
        k1=args.k1,
        k2=args.k2,
        arch=args.arch,
        sim_mode=args.sim_mode,
        word_level=args.word_level,
        seed=args.seed,
        lambda_feature=args.lambda_feature,
        weight_decay=args.weight_decay,
        threads=args.threads,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        init_model=args.init_model,
        resume=args.resume,
        timing=not args.no_timing,
    )
    result = trainer.train(samples, config, lam)
    model.save_model(result.params, args.out_model)
    vocab_path = args.out_vocab or args.out_model + ".vocab"
    corpus.save_vocabulary(result.vocab, vocab_path)
    if args.log:
        result.log.write(args.log)
    first, last = result.log.rows[0], result.log.rows[-1]
    print(f"iterations: {last.iteration}")
    print(f"initial loss {first.loss:.6f} xbleu {first.xbleu:.6f}")
    print(f"final   loss {last.loss:.6f} xbleu {last.xbleu:.6f} gradnorm {last.grad_norm:.3e}")
    print(f"stopped: {result.log.stop_reason}")
    return EXIT_OK


def _cmd_rerank(args) -> int:
    samples = corpus.load_samples(args.nbest, args.refs)
    params = model.load_model(args.model)
    vocab = corpus.load_vocabulary(args.vocab)
    lam = corpus.load_lambda(args.weights)
    result = rerank.rerank(samples, params, lam, vocab)
    lines = []
    for sample, sel in zip(samples, result.selections):
        tokens = " ".join(sample.candidates[sel.index].tokens)
        lines.append(f"{sel.sample_id} {corpus.FIELD_SEP} {tokens}\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    print(f"baseline BLEU  {result.baseline_bleu:.4f}", file=sys.stderr)
    print(f"reranked BLEU  {result.reranked_bleu:.4f}", file=sys.stderr)
    print(f"oracle best    {result.oracle_best_bleu:.4f}", file=sys.stderr)
    print(f"oracle worst   {result.oracle_worst_bleu:.4f}", file=sys.stderr)
    return EXIT_OK


def _read_id_text_file(path) -> dict[int, tuple[str, ...]]:
    """Take the last |||-field of each line as the token sequence, keyed by id."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            parts = [p.strip() for p in raw.split(corpus.FIELD_SEP)]
            if len(parts) < 2:
                raise corpus.CorpusError(f"expected at least 2 '{corpus.FIELD_SEP}' fields", path, lineno)
            try:
                sent_id = int(parts[0])
            except ValueError:
                raise corpus.CorpusError(f"bad sentence id {parts[0]!r}", path, lineno) from None
            out[sent_id] = tuple(parts[-1].lower().split())
    if not out:
        raise corpus.CorpusError("file is empty", path)
    return out


def _cmd_eval(args) -> int:
    hyps = _read_id_text_file(args.hyp)
    refs = _read_id_text_file(args.refs)
    missing = sorted(set(hyps) - set(refs))
    if missing:
        raise corpus.CorpusError(f"hypothesis ids {missing[:5]} have no reference", args.hyp)
    unmatched = sorted(set(refs) - set(hyps))
    if unmatched:
        raise corpus.CorpusError(f"reference ids {unmatched[:5]} have no hypothesis", args.hyp)
    pairs = [(refs[i], hyps[i]) for i in sorted(hyps)]
    print(f"{bleu.corpus_bleu(pairs):.4f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if (args.nbest is None) != (args.refs is None):
        print("gradcheck: --nbest and --refs must be given together", file=sys.stderr)
        return EXIT_USAGE
    if args.nbest:
        samples = corpus.load_samples(args.nbest, args.refs)
        lam = np.array(synth.DEFAULT_LAMBDA)
    else:
        spec = synth.SynthSpec(
            concepts=3,
            phrases_per_concept=2,
            sentences=4,
            phrases_per_sentence=2,
            candidates=3,
            noise=0.4,
            seed=args.seed,
        )
        samples, lam = synth.generate(spec)
        samples = corpus.dedupe_candidates(samples)
    vocab = corpus.build_vocabulary(samples)
    params = model.init_params(
        len(vocab),
        args.k1,
        args.k2,
        args.arch,
        args.sim_mode,
        args.word_level,
        seed=args.seed,
    )
    err = objective.gradient_check(samples, params, lam, vocab, step=args.step)
    print(f"max relative error: {err:.3e} (tolerance {args.tol:.1e})")
    if not np.isfinite(err) or err > args.tol:
        print("gradcheck: FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_tune_lambda(args) -> int:
    samples = corpus.load_samples(args.nbest, args.refs)
    params = model.load_model(args.model)
    vocab = corpus.load_vocabulary(args.vocab)
    lam = corpus.load_lambda(args.weights)
    before = rerank.rerank(samples, params, lam, vocab).reranked_bleu
    tuned = trainer.tune_lambda(samples, params, vocab, lam)
    after = rerank.rerank(samples, params, tuned, vocab).reranked_bleu
    corpus.save_lambda(tuned, args.out)
    print(f"dev BLEU {before:.4f} -> {after:.4f}")
    return EXIT_OK


def _cmd_export_embeddings(args) -> int:
    by_id = corpus.parse_nbest(args.nbest)
    params = model.load_model(args.model)
    vocab = corpus.load_vocabulary(args.vocab)
    phrases: dict[tuple[str, ...], None] = {}
    for entries in by_id.values():
        for entry in entries:
            for pair in entry.derivation:
                phrases.setdefault(pair.source)
                phrases.setdefault(pair.target)
    lines = []
    for tokens in phrases:
        out = model.project(model.encode(tokens, vocab), params).output
        values = " ".join(repr(float(v)) for v in out)
        lines.append(f"{' '.join(tokens)}\t{values}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


_HANDLERS = {
    "train": _cmd_train,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "synthgen": _cmd_synthgen,
    "tune-lambda": _cmd_tune_lambda,
    "export-embeddings": _cmd_export_embeddings,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        config_path = _peek_config_path(argv)
        if config_path is not None and argv and argv[0] in subs:
            _apply_config(subs[argv[0]], _load_config_file(config_path))
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"semphrase: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (corpus.CorpusError, model.ModelIOError) as exc:
        print(f"semphrase: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except ValueError as exc:
        print(f"semphrase: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
