"""Command-line entry points.

Subcommands: ``train``, ``rerank``, ``eval``, ``gradcheck``, ``synthgen``,
``tune-lambda``, ``export-embeddings``.  Every flag can also be supplied
through ``--config FILE`` holding flat ``key=value`` lines (keys are the long
flag names); explicit flags win over config values, and a key that repeats is
refused.  ``--config`` is found by argparse like any other flag, so a unique
prefix such as ``--conf`` works, one that is ambiguous in the subcommand
(``--con`` of ``synthgen``) is a usage error, and the last ``--config`` given
wins.  All randomness flows from the ``--seed`` flag of the respective
subcommand.

Exit codes: 0 success, 2 usage error, 3 missing or unusable file, 4 malformed
or inconsistent data, 5 failed numerical check.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import math
import sys
from itertools import chain

import numpy as np

from . import bleu, corpus, model, objective, rerank, synth, trainer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_DATA = 4
EXIT_CHECK_FAILED = 5


def _add_corpus_flags(sub, role="training"):
    sub.add_argument("--nbest", required=True, help=f"{role} N-best file")
    sub.add_argument("--refs", required=True, help=f"{role} reference file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semphrase",
        description="Train bilingual phrase embeddings on N-best lists and rerank with them.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub = subparsers.add_parser("train", help="fit the projection matrices on an N-best corpus")
    _add_corpus_flags(sub)
    sub.add_argument("--weights", required=True, help="baseline weight file (M+1 lines)")
    sub.add_argument("--out-model", required=True, help="where to write the trained model")
    sub.add_argument("--out-vocab", help="vocabulary file (default: <out-model>.vocab)")
    sub.add_argument("--log", help="write the per-iteration TSV log here")
    sub.add_argument("--trace", help="write one JSON line per L-BFGS iteration here (step lengths, evaluations)")
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
    sub.add_argument("--threads", type=int, default=1, help="ignored: training runs in one thread, BLAS aside")
    sub.add_argument("--lambda-feature", type=float, default=1.0, help="similarity feature weight during training")
    sub.add_argument("--weight-decay", type=float, default=0.0)
    sub.add_argument("--checkpoint-dir")
    sub.add_argument("--checkpoint-interval", type=int, default=0)
    sub.add_argument("--init-model", help="warm-start W1 from this model file")
    sub.add_argument("--resume", help="resume from this checkpoint file")
    sub.add_argument("--no-timing", action="store_true", help="log 0.0 wall seconds (reproducible logs)")

    sub = subparsers.add_parser("rerank", help="pick the best candidate per sentence")
    _add_corpus_flags(sub, role="test")
    sub.add_argument("--model", required=True, help="trained model file")
    sub.add_argument("--vocab", required=True, help="vocabulary file written at training time")
    sub.add_argument("--weights", required=True, help="weight file (M+1 lines)")
    sub.add_argument("--output", help="write selections here instead of stdout")
    sub.add_argument("--threads", type=int, default=1, help="ignored: reranking runs in one thread, BLAS aside")

    sub = subparsers.add_parser("eval", help="corpus BLEU of a hypothesis file against references")
    sub.add_argument("--hyp", required=True, help="hypothesis file (sent_id ||| ... ||| tokens)")
    sub.add_argument("--refs", required=True, help="reference file")

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

    sub = subparsers.add_parser(
        "tune-lambda",
        help="tune the weights on dev BLEU: coordinate ascent, one exact line search per weight in (-5, 5)",
    )
    _add_corpus_flags(sub, role="dev")
    sub.add_argument("--model", required=True)
    sub.add_argument("--vocab", required=True)
    sub.add_argument("--weights", required=True, help="starting weights (M+1 lines)")
    sub.add_argument("--out", required=True, help="where to write the tuned weights")

    sub = subparsers.add_parser("export-embeddings", help="dump projected phrase vectors as text")
    sub.add_argument("--model", required=True)
    sub.add_argument("--vocab", required=True)
    sub.add_argument("--nbest", required=True, help="N-best file supplying the phrases")
    sub.add_argument("--out", help="output path (default: stdout)")

    for sub in subparsers.choices.values():
        sub.add_argument("--config", help="flat key=value file supplying flag defaults")
    return parser, subparsers.choices


class _RaisingParser(argparse.ArgumentParser):
    """A parser that raises ``argparse.ArgumentError`` where ``ArgumentParser`` prints usage and exits."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _config_path(sub, args) -> str | None:
    """The ``--config`` file ``sub`` records for ``args``; None if it records none or refuses ``args``.

    A copy of ``sub``'s flags, none of them required, reads ``args``, so an
    abbreviation resolves, or is ambiguous, exactly as in ``sub``.  A refused
    command line is left for the full parse to report.
    """
    pre = _RaisingParser(add_help=False)
    for action in sub._actions:
        if action.dest != "help":
            pre._add_action(copy.copy(action)).required = False
    try:
        return pre.parse_known_args(args)[0].config
    except argparse.ArgumentError:
        return None


def _load_config_file(path) -> dict[str, str]:
    """The ``key=value`` lines of ``path``, skipping ``#`` comments; a key that repeats is refused."""
    values, first_line = {}, {}
    for lineno, text in corpus.read_lines(path):
        if text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise corpus.CorpusError("expected key=value", path, lineno)
        key = key.strip()
        dest = key.replace("-", "_")
        if dest in first_line:
            raise corpus.CorpusError(f"key {key!r} repeats line {first_line[dest]}", path, lineno)
        first_line[dest] = lineno
        values[key] = value.strip()
    return values


def _apply_config(sub, config: dict[str, str]) -> None:
    """Make ``config``'s values the defaults of ``sub``'s flags; a switch takes 1/0, true/false, yes/no or on/off."""
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"unknown config key {key!r}")
        action = actions[dest]
        if isinstance(action.default, bool) or isinstance(action.const, bool):
            word = value.lower()
            if word not in ("1", "0", "true", "false", "yes", "no", "on", "off"):
                raise ValueError(f"config key {key!r} has value {value!r}, not 1/0, true/false, yes/no or on/off")
            defaults[dest] = word in ("1", "true", "yes", "on")
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


def _load_corpus_and_weights(args) -> tuple[list[corpus.TrainingSample], np.ndarray]:
    """The ``--nbest``/``--refs`` samples and the ``--weights`` vector, one weight per feature plus one."""
    samples = corpus.load_samples(args.nbest, args.refs)
    n_features = samples[0].candidates[0].features.size
    return samples, corpus.load_lambda(args.weights, expected_len=n_features + 1)


def _cmd_train(args) -> int:
    samples, lam = _load_corpus_and_weights(args)
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
    if args.trace:
        result.log.write_trace(args.trace)
    first, last = result.log.rows[0], result.log.rows[-1]
    print(f"iterations: {last.iteration}")
    print(f"initial loss {first.loss:.6f} xbleu {first.xbleu:.6f}")
    print(f"final   loss {last.loss:.6f} xbleu {last.xbleu:.6f} gradnorm {last.grad_norm:.3e}")
    print(f"stopped: {result.log.stop_reason}")
    return EXIT_OK


def _load_model_and_vocabulary(args) -> tuple[model.ModelParams, corpus.Vocabulary]:
    """The ``--model`` and ``--vocab`` of a scoring command, checked to fit before any N-best is read."""
    params = model.load_model(args.model)
    vocab = corpus.load_vocabulary(args.vocab)
    if len(vocab) != params.d:
        raise corpus.CorpusError(
            f"vocabulary has {len(vocab)} tokens but model {args.model} has {params.d} W1 rows", args.vocab
        )
    return params, vocab


def _write_lines(lines, path) -> None:
    """Write ``lines`` to ``path`` through ``corpus.atomic_writer``, or to stdout when ``path`` is not given."""
    if path:
        with corpus.atomic_writer(path) as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _cmd_rerank(args) -> int:
    params, vocab = _load_model_and_vocabulary(args)
    samples, lam = _load_corpus_and_weights(args)
    result = rerank.rerank(samples, params, lam, vocab)
    lines = []
    for sample, sel in zip(samples, result.selections):
        tokens = " ".join(sample.candidates[sel.index].tokens)
        lines.append(f"{sel.sample_id} {corpus.FIELD_SEP} {tokens}\n")
    _write_lines(lines, args.output)
    print(f"baseline BLEU  {result.baseline_bleu:.4f}", file=sys.stderr)
    print(f"reranked BLEU  {result.reranked_bleu:.4f}", file=sys.stderr)
    print(f"oracle best    {result.oracle_best_bleu:.4f}", file=sys.stderr)
    print(f"oracle worst   {result.oracle_worst_bleu:.4f}", file=sys.stderr)
    return EXIT_OK


def _read_hypotheses(path) -> dict[int, tuple[str, ...]]:
    """Take the last |||-field of each line as the token sequence, keyed by its distinct id."""
    out = {}
    for lineno, sent_id, fields in corpus.read_records(path, 2, "file", at_least=True):
        if sent_id in out:
            raise corpus.CorpusError(f"duplicate sentence id {sent_id}", path, lineno)
        out[sent_id] = corpus.fold_field(fields[-1])
    return out


def _cmd_eval(args) -> int:
    hyps = _read_hypotheses(args.hyp)
    refs = {i: reference for i, (_, reference) in corpus.load_references(args.refs).items()}
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
    if not args.tol >= 0.0:
        raise ValueError(f"tol must be {'a number' if math.isnan(args.tol) else '>= 0'}, got {args.tol!r}")
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {args.step!r}")
    if args.nbest:
        samples = corpus.load_samples(args.nbest, args.refs)
        lam = np.ones(samples[0].candidates[0].features.size + 1)
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
    params, vocab = _load_model_and_vocabulary(args)
    samples, lam = _load_corpus_and_weights(args)
    tuned, before, after = trainer.tune(*objective.score(samples, params, vocab, lam.size), lam)
    corpus.save_lambda(tuned, args.out)
    print(f"dev BLEU {before:.4f} -> {after:.4f}")
    return EXIT_OK


def _cmd_export_embeddings(args) -> int:
    params, vocab = _load_model_and_vocabulary(args)
    entries = chain.from_iterable(corpus.parse_nbest(args.nbest).values())
    # the ``objective.CompiledCorpus.phrases`` order: first occurrence, source before target
    phrases = list(dict.fromkeys(phrase for entry in entries for pair in entry.derivation for phrase in pair))
    outputs = model.project(model.encode(phrases, vocab), params)[1]
    lines = [f"{' '.join(tokens)}\t{' '.join(map(repr, out.tolist()))}\n" for tokens, out in zip(phrases, outputs)]
    _write_lines(lines, args.out)
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

# Commands that score with a loaded model.  They run with numpy raising on
# overflow and invalid values: finite weights near the float64 maximum still
# overflow the forward pass, and that is malformed model data, not a warning.
_SCORING = ("rerank", "tune-lambda", "export-embeddings")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        if argv and argv[0] in subs and (config_path := _config_path(subs[argv[0]], argv[1:])) is not None:
            _apply_config(subs[argv[0]], _load_config_file(config_path))
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        checked = args.command in _SCORING
        with np.errstate(over="raise", invalid="raise") if checked else contextlib.nullcontext():
            return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:  # a missing or unusable file, input or output
        what = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"semphrase: {what}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as exc:  # corpus.CorpusError and model.ModelIOError among them
        print(f"semphrase: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except FloatingPointError as exc:  # only a scoring command's errstate raises it
        print(f"semphrase: {args.model}: arithmetic with this model's weights failed: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
