import io
import json
import os
import struct

# pin BLAS threading before numpy loads anywhere; reduction order inside
# matrix products must not depend on the machine's core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from affectmap.lexicon import BE5, VAD, AlignedLexicon
from affectmap.models import KnnModel, save_model


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


def malformed_model_files():
    """Name -> bytes of a model file whose header or payload is broken."""
    buf = io.BytesIO()
    save_model(KnnModel(k=3).fit_arrays(np.ones((4, 3)), np.ones((4, 5))), buf)
    raw = buf.getvalue()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    payload = raw[12 + header_len :]

    def frame(h):
        blob = json.dumps(h).encode("utf-8")
        return raw[:8] + struct.pack("<I", len(blob)) + blob + payload

    negative = json.loads(json.dumps(header))
    negative["arrays"][0]["shape"] = [-1, 2]
    return {
        "no-arrays": frame({k: v for k, v in header.items() if k != "arrays"}),
        "list-header": frame([header]),
        "negative-shape": frame(negative),
        "knn-empty-meta": frame({**header, "meta": {}}),
        "trailing-bytes": raw + bytes(8),
    }
