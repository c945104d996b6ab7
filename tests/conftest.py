import io
import json
import os
import struct
import warnings

# pin BLAS threading before numpy loads anywhere; reduction order inside
# matrix products must not depend on the machine's core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from affectmap.lexicon import BE5, VAD, AlignedLexicon
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    save_model,
)


def make_affine_arrays(n=200, s=3, t=5, seed=0, noise=0.0, mscale=0.15, offset=3.0):
    """Source uniform on [1,9]; targets an affine map of the source.

    The defaults keep targets inside [1,5]; recovery fixtures crank
    mscale up so 2,000 optimizer steps suffice for near-perfect fits."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(1.0, 9.0, size=(n, s))
    M = rng.uniform(-mscale, mscale, size=(t, s))
    T = offset + (S - 5.0) @ M.T
    if noise:
        T = T + rng.normal(0.0, noise, size=T.shape)
    return S, T


def make_vshape_arrays(n=300, seed=0):
    """Targets depend on |source - 5|, which is uncorrelated with the
    source itself; linear models see nothing, networks see everything."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(1.0, 9.0, size=(n, 3))
    V = rng.uniform(0.2, 0.45, size=(5, 3))
    T = 1.0 + (np.abs(S - 5.0) - 2.0) @ V.T + 2.0
    return S, T


def make_aligned(n=80, seed=0, noise=0.1, language="en", prefix="w"):
    """Synthetic VAD<->BE5 aligned lexicon with a noisy affine relation."""
    rng = np.random.default_rng(seed)
    words = [f"{prefix}{i:04d}" for i in range(n)]
    vad = rng.uniform(1.0, 9.0, size=(n, 3))
    M = rng.uniform(-0.12, 0.12, size=(5, 3))
    be5 = 3.0 + (vad - 5.0) @ M.T
    if noise:
        be5 = be5 + rng.normal(0.0, noise, size=be5.shape)
    be5 = np.clip(be5, 1.0, 5.0)
    return AlignedLexicon(words, VAD, BE5, vad, be5, language=language)


def _split_model(model):
    """(raw bytes, JSON header, payload) of a saved model."""
    buf = io.BytesIO()
    save_model(model, buf)
    raw = buf.getvalue()
    (header_len,) = struct.unpack("<I", raw[8:12])
    return raw, json.loads(raw[12 : 12 + header_len]), raw[12 + header_len :]


def _frame(raw, header, payload):
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(blob)) + blob + payload


def _reshaped(model, array, shape):
    """Model file bytes with one array's declared shape rewritten; the
    element count, and so the payload length, stays the same."""
    raw, header, payload = _split_model(model)
    (entry,) = [e for e in header["arrays"] if e["name"] == array]
    assert int(np.prod(entry["shape"])) == int(np.prod(shape))
    entry["shape"] = shape
    return _frame(raw, header, payload)


def misshaped_model_files():
    """Name -> bytes of a model file whose array shapes do not chain into
    one model, or disagree with its formats. Every payload is intact."""
    al = make_aligned(n=6, seed=1)
    ffnn = FfnnModel(FfnnConfig(hidden_sizes=(4,), iterations=1)).fit(al)
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        # one training step: the first stage's loss is high, which is fine here
        warnings.simplefilter("ignore", UserWarning)
        boosted = BoostedEnsemble(
            stages=1, base_config=FfnnConfig(hidden_sizes=(4,), iterations=1)
        ).fit_arrays(rng.normal(size=(8, 3)), rng.uniform(1.0, 5.0, size=(8, 2)))
    raw, header, payload = _split_model(KnnModel(k=3).fit(al))
    header["target_format"]["variables"] = header["target_format"]["variables"][:4]
    return {
        "linear-W-transposed": _reshaped(LinearModel().fit(al), "W", [3, 5]),
        "knn-target-transposed": _reshaped(KnnModel(k=3).fit(al), "target", [5, 6]),
        "knn-format-size": _frame(raw, header, payload),
        "ffnn-W1-transposed": _reshaped(ffnn, "W1", [4, 5]),
        "boosted-W0-transposed": _reshaped(boosted, "v0s0_W0", [3, 4]),
        "boosted-weights-2d": _reshaped(boosted, "v1_weights", [1, 1]),
    }


def malformed_model_files():
    """Name -> bytes of a model file whose header or payload is broken."""
    raw, header, payload = _split_model(
        KnnModel(k=3).fit_arrays(np.ones((4, 3)), np.ones((4, 5)))
    )

    def frame(h):
        return _frame(raw, h, payload)

    negative = json.loads(json.dumps(header))
    negative["arrays"][0]["shape"] = [-1, 2]
    return {
        "no-arrays": frame({k: v for k, v in header.items() if k != "arrays"}),
        "list-header": frame([header]),
        "negative-shape": frame(negative),
        "knn-empty-meta": frame({**header, "meta": {}}),
        "trailing-bytes": raw + bytes(8),
    }
