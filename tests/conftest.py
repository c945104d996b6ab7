import io
import json
import math
import os
import struct
import warnings
from pathlib import Path

# pin BLAS threading before numpy loads anywhere; reduction order inside
# matrix products must not depend on the machine's core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from affectmap.errors import ConfigurationError, ParseError, ValidationError
from affectmap.lexgen import format_rating
from affectmap.lexicon import (
    BE5,
    VAD,
    AlignedLexicon,
    Diagnostic,
    Lexicon,
    canonical_word,
)
from affectmap.models import (
    BoostedEnsemble,
    FfnnConfig,
    FfnnModel,
    KnnModel,
    LinearModel,
    save_model,
)
from affectmap.models import ffnn as ffnn_module


def _decode(data) -> str:
    """The whole source decoded at once, line ends normalized to LF: how the
    references read their input."""
    if isinstance(data, (str, Path)):
        raw = Path(data).read_bytes()
    elif isinstance(data, bytes):
        raw = data
    elif hasattr(data, "read"):
        raw = data.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        raise ConfigurationError(f"cannot read lexicon from {type(data).__name__}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from None
    # normalize line endings instead of rejecting CRLF files outright
    return text.replace("\r\n", "\n").replace("\r", "\n")


def reference_parse(data, fmt, column_map, *, language="", source_id="", lowercase=False,
                    clamp=False, scale=None, diagnostics=None):
    """parse_lexicon as it read before its lean row loop: one numpy vector
    per row, every row of a word kept until the end, then averaged. The
    tests hold parse_lexicon to its words, value bits, diagnostics and
    exceptions."""
    missing = [v for v in ("word", *fmt.variables) if v not in column_map]
    if missing:
        raise ConfigurationError(f"column_map is missing bindings for: {', '.join(missing)}")
    lines = _decode(data).split("\n")
    if not lines or not lines[0].strip():
        raise ParseError("missing header row", line=1)
    header = lines[0].split("\t")
    positions = {}
    for key in ("word", *fmt.variables):
        col = column_map[key]
        if col not in header:
            raise ConfigurationError(f"column {col!r} (bound to {key!r}) not found in header")
        positions[key] = header.index(col)
    src_low, src_high = scale if scale is not None else (fmt.scale_low, fmt.scale_high)
    if not src_low < src_high:
        raise ConfigurationError("declared scale must satisfy low < high")
    span = (fmt.scale_high - fmt.scale_low) / (src_high - src_low)
    sink = diagnostics if diagnostics is not None else []
    rows, first_line = {}, {}
    needed = max(positions.values()) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) < needed:
            raise ParseError(
                f"expected at least {needed} tab-separated fields, got {len(cells)}", line=lineno
            )
        word = canonical_word(cells[positions["word"]], lowercase=lowercase)
        if not word:
            raise ParseError("empty word", line=lineno)
        vec = np.empty(fmt.size)
        for j, var in enumerate(fmt.variables):
            cell = cells[positions[var]].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} in column {column_map[var]!r}", line=lineno
                ) from None
            if scale is not None:
                v = fmt.scale_low + (v - src_low) * span
            if not fmt.scale_low <= v <= fmt.scale_high:
                if not math.isfinite(v):
                    raise ParseError(
                        f"non-finite value {cell!r} in column {column_map[var]!r}", line=lineno
                    )
                if not clamp:
                    raise ValidationError(
                        f"line {lineno}: {var}={v!r} for word {word!r} outside "
                        f"[{fmt.scale_low}, {fmt.scale_high}]"
                    )
                clamped = min(max(v, fmt.scale_low), fmt.scale_high)
                sink.append(Diagnostic(
                    "clamped", f"{var}={v!r} clamped to {clamped!r}", line=lineno, word=word
                ))
                v = clamped
            vec[j] = v
        if word in rows:
            sink.append(Diagnostic(
                "duplicate",
                f"word {word!r} repeats entry from line {first_line[word]}; ratings averaged",
                line=lineno,
                word=word,
            ))
        else:
            first_line[word] = lineno
        rows.setdefault(word, []).append(vec)
    words = list(rows)
    values = np.array(
        [np.mean(rows[w], axis=0) if len(rows[w]) > 1 else rows[w][0] for w in words]
    ).reshape(len(words), fmt.size)
    return Lexicon(fmt, words, values, language=language, source_id=source_id)


def reference_feature_parse(source):
    """read_feature_vectors as it read before it streamed its source: the
    whole text decoded, split into lines, and every cell read by float().
    The tests hold the streaming reader to its words, value bits, warnings
    and failing lines."""
    text = _decode(source)
    rows: dict[str, list[np.ndarray]] = {}
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            raise ParseError("expected a word and at least one value", line=lineno)
        word = canonical_word(cells[0])
        if not word:
            raise ParseError("empty word", line=lineno)
        try:
            vec = np.array([float(c) for c in cells[1:]])
        except ValueError:
            raise ParseError(f"non-numeric feature value in {cells[1:]!r}", line=lineno) from None
        if not np.isfinite(vec).all():
            raise ParseError(f"non-finite feature value in {cells[1:]!r}", line=lineno)
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise ParseError(
                f"feature vector of length {vec.size}, expected {width}", line=lineno
            )
        if word in rows:
            warnings.warn(f"duplicate feature entry for {word!r}; averaging", stacklevel=2)
        rows.setdefault(word, []).append(vec)
    if not rows:
        raise ParseError("no feature vectors found", line=1)
    return {
        w: (np.mean(v, axis=0) if len(v) > 1 else v[0]) for w, v in rows.items()
    }


def feature_outcome(read, data, **options):
    """Words and value bytes of read(data), or the class and line of the
    exception it raises; with the messages of the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            vectors = read(io.BytesIO(data), **options)
        except Exception as e:
            result = type(e), getattr(e, "line", None)
        else:
            result = list(vectors), [v.tobytes() for v in vectors.values()]
    return result, [(w.category, str(w.message)) for w in caught]


def parse_outcome(parse, data, fmt, column_map=None, **options):
    """Words, value bytes and diagnostics of parse(...), or the class and
    message of the exception it raises."""
    if column_map is None:
        column_map = {"word": "word", **{v: v for v in fmt.variables}}
    diagnostics = []
    try:
        lex = parse(data, fmt, column_map, diagnostics=diagnostics, **options)
    except Exception as e:
        return type(e), str(e)
    return lex.words, lex.values.tobytes(), diagnostics


def reference_render_lexicon(lex):
    """render_lexicon as it read before it printed plain cells from a
    table of thousandths: "%.3f" row by row, and format_rating for every
    cell of a row holding a cell near a tie or of magnitude 1e6 and above.
    The tests hold render_lexicon to its bytes."""
    order = sorted(range(len(lex.words)), key=lex.words.__getitem__)
    values = lex.values[order]
    scaled = values * 1000.0
    plain = (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6) & (np.abs(values) < 1e6)
    row_format = "\t".join(["%s"] + ["%.3f"] * lex.format.size)
    lines = ["\t".join(("word", *lex.format.variables))]
    for i, row, ok in zip(order, map(np.ndarray.tolist, values), plain.all(axis=1).tolist()):
        if ok:
            lines.append(row_format % (lex.words[i], *row))
        else:
            lines.append("\t".join((lex.words[i], *map(format_rating, row))))
    return ("\n".join(lines) + "\n").encode("utf-8")


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


def init_float64(cfg, n_in, n_out):
    """FfnnModel.fit_arrays's seeded initialization with float64 weights,
    and the generator positioned where its training loop takes over."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = ffnn_module._init_layers([n_in, *cfg.hidden_sizes, n_out], rng)
    return FfnnModel(cfg, weights=weights, biases=biases), rng


def fit_float64(cfg, S, T):
    """FfnnModel.fit_arrays run through the same training loop on float64
    weights: the float64 arithmetic of ffnn_forward, ffnn_backward and the
    adaptive-moment step, which older model files and gradient_check use."""
    S, T = (np.ascontiguousarray(a, dtype=np.float64) for a in (S, T))
    m, rng = init_float64(cfg, S.shape[1], T.shape[1])
    m.loss_trace = ffnn_module._train(m, ffnn_module._Workspace(m, S, T, rng))
    return m


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
    net = FfnnModel(FfnnConfig(hidden_sizes=(2,), iterations=1))
    net_raw, net_header, net_payload = _split_model(
        net.fit_arrays(np.ones((4, 3)), np.ones((4, 5)))
    )
    net_header["meta"]["dtype"] = "float16"
    return {
        "no-arrays": frame({k: v for k, v in header.items() if k != "arrays"}),
        "list-header": frame([header]),
        "negative-shape": frame(negative),
        "knn-empty-meta": frame({**header, "meta": {}}),
        "trailing-bytes": raw + bytes(8),
        "ffnn-dtype-float16": _frame(net_raw, net_header, net_payload),
    }
