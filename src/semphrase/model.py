"""Phrase encoding, the projection network, and phrase similarity.

A phrase is encoded as a sparse bag-of-words count vector over the joint
source+target vocabulary and projected into a low-dimensional space either by
a two-layer tanh network (``arch="nonlinear"``, matrices W1 and W2, no bias
terms) or by a single linear map (``arch="linear"``, W1 only).  The
translation score of a phrase pair is the dot product or the cosine of the
two projected vectors; ``word_level=True`` switches to a symmetric
mean-of-max aggregation of single-token similarities.  ``row_similarities``
is the one similarity rule, zero-norm cosine included: ``similarity``,
``token_similarity_matrix`` and ``objective.pair_similarities`` all score
their rows with it, so a pair gets the same bits from each.

Parameters are immutable during a forward/gradient pass; the trainer swaps in
fresh arrays between optimizer iterations.

``encode`` turns a batch of phrases into CSR bag rows and ``project`` runs
them through the network in one pass; a row's bits do not depend on the
rest of its batch.  ``similarity`` projects its own pair in one call,
``objective.forward`` a whole corpus's phrases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bleu
from .corpus import Vocabulary, atomic_writer

ARCH_NONLINEAR = "nonlinear"
ARCH_LINEAR = "linear"
SIM_DOT = "dot"
SIM_COSINE = "cosine"

MODEL_FORMAT = "semphrase-model"
MODEL_VERSION = 1


class ModelIOError(ValueError):
    """Model file is unreadable or inconsistent with its header."""


def default_sim_mode(arch: str) -> str:
    """Dot product for the nonlinear network, cosine for the linear map."""
    return SIM_DOT if arch == ARCH_NONLINEAR else SIM_COSINE


@dataclass(eq=False)
class ModelParams:
    """Projection matrices plus architecture and similarity configuration."""

    w1: np.ndarray  # d x k1
    w2: np.ndarray | None  # k1 x k2, None for the linear architecture
    arch: str = ARCH_NONLINEAR
    sim_mode: str = SIM_DOT
    word_level: bool = False

    def __post_init__(self):
        if self.arch not in (ARCH_NONLINEAR, ARCH_LINEAR):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.sim_mode not in (SIM_DOT, SIM_COSINE):
            raise ValueError(f"unknown similarity mode {self.sim_mode!r}")
        if self.arch == ARCH_NONLINEAR:
            if self.w2 is None:
                raise ValueError("nonlinear architecture requires W2")
            if self.w1.shape[1] != self.w2.shape[0]:
                raise ValueError(f"W1 columns ({self.w1.shape[1]}) must match W2 rows ({self.w2.shape[0]})")
        elif self.w2 is not None:
            raise ValueError("linear architecture does not use W2")
        if not np.all(np.isfinite(self.w1)) or (self.w2 is not None and not np.all(np.isfinite(self.w2))):
            raise ValueError("parameters must be finite")

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    @property
    def k1(self) -> int:
        return self.w1.shape[1]

    @property
    def k2(self) -> int:
        return self.w2.shape[1] if self.w2 is not None else 0

    @property
    def size(self) -> int:
        """Length of the ``pack_params`` vector."""
        return self.w1.size + (0 if self.w2 is None else self.w2.size)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.w1.copy(),
            None if self.w2 is None else self.w2.copy(),
            self.arch,
            self.sim_mode,
            self.word_level,
        )


def init_params(
    d: int,
    k1: int = 100,
    k2: int = 100,
    arch: str = ARCH_NONLINEAR,
    sim_mode: str | None = None,
    word_level: bool = False,
    seed: int = 0,
    w1_init: np.ndarray | None = None,
) -> ModelParams:
    """Seeded uniform initialization in [-r, r], r = sqrt(6 / (fan_in + fan_out)).

    ``w1_init`` replaces the random first layer, e.g. with a matrix taken from
    a previously trained linear model to warm-start the nonlinear one.
    """
    widths = {"d": d, "k1": k1} if arch == ARCH_LINEAR else {"d": d, "k1": k1, "k2": k2}
    for name, width in widths.items():
        if width < 1:
            raise ValueError(f"{name} must be >= 1, got {width}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (d + k1))
    w1 = rng.uniform(-r1, r1, size=(d, k1))
    if w1_init is not None:
        w1_init = np.asarray(w1_init, dtype=np.float64)
        if w1_init.shape != (d, k1):
            raise ValueError(f"initial W1 has shape {w1_init.shape}, expected {(d, k1)}")
        w1 = w1_init.copy()
    if arch == ARCH_LINEAR:
        w2 = None
    else:
        r2 = np.sqrt(6.0 / (k1 + k2))
        w2 = rng.uniform(-r2, r2, size=(k1, k2))
    if sim_mode is None:
        sim_mode = default_sim_mode(arch)
    return ModelParams(w1, w2, arch, sim_mode, word_level)


class Bags(NamedTuple):
    """Bag-of-words counts of n phrases over the joint vocabulary, as CSR rows.

    Row i holds its distinct token ids, ascending, at ``ids[starts[i]:starts[i + 1]]``
    and their counts at the same places of ``counts``.
    """

    ids: np.ndarray
    counts: np.ndarray  # float
    starts: np.ndarray  # (n + 1,)
    dim: int


def encode(phrases, vocab: Vocabulary) -> Bags:
    """The count-valued bags of ``phrases``, one row each; unknown tokens land in the UNK slot."""
    lengths = np.fromiter(map(len, phrases), dtype=np.intp, count=len(phrases))
    if not lengths.all():
        raise ValueError("cannot encode an empty phrase")
    dim = len(vocab)
    ids = np.fromiter((vocab.token_id(t) for phrase in phrases for t in phrase), dtype=np.intp, count=lengths.sum())
    keys, counts = np.unique(np.repeat(np.arange(lengths.size) * dim, lengths) + ids, return_counts=True)
    rows = keys // dim
    return Bags(keys - rows * dim, counts.astype(np.float64), np.searchsorted(rows, np.arange(lengths.size + 1)), dim)


def project(bags: Bags, params: ModelParams) -> tuple[np.ndarray | None, np.ndarray]:
    """Each row's hidden layer ``y1`` (None for the linear map) and output, as (n, k) arrays.

    Nonlinear: y1 = tanh(W1^T x), output tanh(W2^T y1); linear: W1^T x.
    Each row's bits do not depend on the rest of the batch: layer 1 sums
    the row's gathered W1 rows times its counts, and layer 2 is one
    vector-matrix product per row.
    """
    if bags.dim != params.d:
        raise ValueError(f"word vector dimension {bags.dim} does not match W1 rows {params.d}")
    z1 = np.add.reduceat(params.w1[bags.ids] * bags.counts[:, None], bags.starts[:-1], axis=0)
    if params.arch == ARCH_LINEAR:
        return None, z1
    y1 = np.tanh(z1)
    return y1, np.tanh(np.matmul(y1[:, None, :], params.w2)[:, 0, :])


def row_similarities(u: np.ndarray, v: np.ndarray, sim_mode: str) -> np.ndarray:
    """Similarity of each row of ``u`` with the same row of ``v``, one BLAS dot per row.

    Dot, or cosine: the dot over the two row norms, 0 if either norm is zero.
    """
    dots = np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]
    if sim_mode == SIM_DOT:
        return dots
    scale = np.sqrt(row_similarities(u, u, SIM_DOT)) * np.sqrt(row_similarities(v, v, SIM_DOT))
    return np.divide(dots, scale, out=np.zeros_like(dots), where=scale > 0.0)


def token_similarity_matrix(f_out: np.ndarray, e_out: np.ndarray, sim_mode: str) -> np.ndarray:
    """|f| x |e| matrix of ``row_similarities`` between source token output rows and target token output rows."""
    grid = row_similarities(np.repeat(f_out, len(e_out), axis=0), np.tile(e_out, (len(f_out), 1)), sim_mode)
    return grid.reshape(len(f_out), len(e_out))


def word_similarity(sims: np.ndarray) -> float:
    """Word-level score of a token matrix: half the mean of each row's max plus half that of each column's."""
    return 0.5 * float(np.mean(sims.max(axis=1))) + 0.5 * float(np.mean(sims.max(axis=0)))


def similarity(f_tokens, e_tokens, params: ModelParams, vocab: Vocabulary) -> float:
    """Translation score of a phrase pair: ``row_similarities`` of their outputs, from one ``project`` call.

    Word-level: ``word_similarity`` of the matrix of their tokens' outputs.
    """
    if params.word_level:
        out = project(encode([(t,) for t in (*f_tokens, *e_tokens)], vocab), params)[1]
        return word_similarity(token_similarity_matrix(out[: len(f_tokens)], out[len(f_tokens) :], params.sim_mode))
    u, v = project(encode((f_tokens, e_tokens), vocab), params)[1]
    return float(row_similarities(u[None], v[None], params.sim_mode)[0])


def pack_params(params: ModelParams) -> np.ndarray:
    """Flatten the projection matrices into one vector (W1 first, row-major)."""
    if params.w2 is None:
        return params.w1.ravel().copy()
    return np.concatenate([params.w1.ravel(), params.w2.ravel()])


def param_views(template: ModelParams, vector: np.ndarray):
    """W1- and W2-shaped views of a flat ``pack_params`` vector; W2 is None for linear."""
    n1 = template.w1.size
    w2 = None if template.w2 is None else vector[n1:].reshape(template.w2.shape)
    return vector[:n1].reshape(template.w1.shape), w2


def unpack_params(template: ModelParams, vector: np.ndarray) -> ModelParams:
    """Rebuild parameters from a flat vector using ``template``'s shapes and config."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.size != template.size:
        raise ValueError(f"vector has {vector.size} entries, expected {template.size}")
    w1, w2 = param_views(template, vector)
    w2 = None if w2 is None else w2.copy()
    return ModelParams(w1.copy(), w2, template.arch, template.sim_mode, template.word_level)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# Header fields and the test each value must pass; "trainer" marks a checkpoint.
_HEADER_FIELDS = {
    "d": _is_count,
    "k1": _is_count,
    "k2": _is_count,
    "arch": lambda v: v in (ARCH_NONLINEAR, ARCH_LINEAR),
    "sim_mode": lambda v: v in (SIM_DOT, SIM_COSINE),
    "word_level": lambda v: isinstance(v, bool),
}
_TRAINER_FIELDS = {
    "iteration": _is_count,
    "history_len": _is_count,
    "loss_window": lambda v: isinstance(v, list)
    and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
}


def save_model(params: ModelParams, path, trainer: dict | None = None) -> None:
    """Write a model file atomically: one JSON header line, then raw row-major float64.

    ``trainer`` makes the file a training checkpoint: its ``iteration`` and
    ``loss_window`` go into the header, and its ``s_list`` then ``y_list``
    vectors (the optimizer history) follow the matrices.  ``corpus.atomic_writer``
    writes it, so a failed save leaves any previous file intact.
    """
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": params.d,
        "k1": params.k1,
        "k2": params.k2,
        "arch": params.arch,
        "sim_mode": params.sim_mode,
        "word_level": params.word_level,
        "bleu_smoothing": bleu.SMOOTHING_TAG,
    }
    blocks = [params.w1] if params.w2 is None else [params.w1, params.w2]
    if trainer is not None:
        header["trainer"] = {
            "iteration": trainer["iteration"],
            "history_len": len(trainer["s_list"]),
            "loss_window": [float(v) for v in trainer["loss_window"]],
        }
        blocks += [*trainer["s_list"], *trainer["y_list"]]
    with atomic_writer(path, binary=True) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype=np.float64).tobytes())


def read_model_header(path) -> dict:
    """The validated JSON header of a model file or checkpoint."""
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelIOError(f"{path}: unreadable model header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise ModelIOError(f"{path}: not a model file")
    if header.get("version") != MODEL_VERSION:
        raise ModelIOError(f"{path}: unsupported model version {header.get('version')!r}")
    _check_fields(path, header, _HEADER_FIELDS, "")
    for name in ("d", "k1") if header["arch"] == ARCH_LINEAR else ("d", "k1", "k2"):
        if header[name] < 1:
            raise ModelIOError(f"{path}: header field '{name}' must be >= 1, got {header[name]}")
    if "trainer" in header:
        if not isinstance(header["trainer"], dict):
            raise ModelIOError(f"{path}: header field 'trainer' is not an object")
        _check_fields(path, header["trainer"], _TRAINER_FIELDS, "trainer.")
    return header


def _check_fields(path, header: dict, fields: dict, prefix: str) -> None:
    for name, valid in fields.items():
        if name not in header:
            raise ModelIOError(f"{path}: header lacks field '{prefix}{name}'")
        if not valid(header[name]):
            raise ModelIOError(f"{path}: header field '{prefix}{name}' has invalid value {header[name]!r}")


def read_model(path) -> tuple[ModelParams, dict | None]:
    """Read a model file: the parameters, plus the trainer state of a checkpoint.

    The trainer state is ``None`` for a plain model file, else a dict with
    ``iteration``, ``s_list``, ``y_list`` and ``loss_window``.
    """
    header = read_model_header(path)
    d, k1, k2 = header["d"], header["k1"], header["k2"]
    arch = header["arch"]
    n_model = d * k1 + (k1 * k2 if arch == ARCH_NONLINEAR else 0)
    trainer = header.get("trainer")
    hist = 0 if trainer is None else trainer["history_len"]
    with open(path, "rb") as fh:
        fh.readline()
        payload = fh.read()
    expected = (1 + 2 * hist) * n_model * 8
    if len(payload) != expected:
        raise ModelIOError(
            f"{path}: matrix payload is {len(payload)} bytes, header shapes require {expected}"
        )
    flat = np.frombuffer(payload, dtype=np.float64)
    w1 = flat[: d * k1].reshape(d, k1).copy()
    w2 = flat[d * k1 : n_model].reshape(k1, k2).copy() if arch == ARCH_NONLINEAR else None
    try:
        params = ModelParams(w1, w2, arch, header["sim_mode"], header["word_level"])
    except ValueError as exc:
        raise ModelIOError(f"{path}: {exc}") from None
    if trainer is None:
        return params, None
    if not np.all(np.isfinite(flat[n_model:])):
        raise ModelIOError(f"{path}: optimizer history must be finite")
    history = [flat[(1 + i) * n_model : (2 + i) * n_model].copy() for i in range(2 * hist)]
    return params, {
        "iteration": trainer["iteration"],
        "s_list": history[:hist],
        "y_list": history[hist:],
        "loss_window": list(trainer["loss_window"]),
    }


def load_model(path) -> ModelParams:
    """Read the parameters from a model file or a training checkpoint."""
    return read_model(path)[0]
