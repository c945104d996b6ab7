"""Binary model serialization.

Layout: 8-byte magic "AFMAP001", little-endian uint32 header length, a
UTF-8 JSON header (kind, formats, scalar metadata, array manifest), then
the arrays as raw little-endian float64 bytes, row-major, in manifest
order. Save -> load -> predict round-trips bit-identically because the
parameters themselves round-trip bit-identically: ffnn and boosted meta
record the networks' dtype, and float32 weights, stored exactly as
float64, are cast back to it. Files without a dtype hold networks trained
in float64 and load as float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from ..errors import ContractError, ParseError
from ..lexicon import EmotionFormat, _emit
from .boosting import BoostedEnsemble
from .ffnn import FfnnConfig, FfnnModel
from .knn import KnnModel
from .linear import LinearModel

__all__ = ["MAGIC", "save_model", "load_model"]

MAGIC = b"AFMAP001"


def _format_dict(fmt):
    if fmt is None:
        return None
    return {
        "name": fmt.name,
        "variables": list(fmt.variables),
        "scale_low": fmt.scale_low,
        "scale_high": fmt.scale_high,
    }


def _format_from(d):
    if d is None:
        return None
    return EmotionFormat(d["name"], tuple(d["variables"]), d["scale_low"], d["scale_high"])


def _net_arrays(prefix, net):
    arrays = []
    for i, w in enumerate(net.weights):
        arrays.append((f"{prefix}W{i}", w))
    for i, b in enumerate(net.biases):
        arrays.append((f"{prefix}b{i}", b))
    return arrays


def _collect(model):
    """(kind, meta, named arrays) for any supported model."""
    if not isinstance(model, (LinearModel, KnnModel, FfnnModel, BoostedEnsemble)):
        raise ContractError(f"cannot serialize {type(model).__name__}")
    if not model.fitted:
        raise ContractError("cannot save an unfitted model")
    if isinstance(model, LinearModel):
        return "linear", {}, [("W", model.W), ("b", model.b)]
    if isinstance(model, KnnModel):
        meta = {"k": model.k}
        return "knn", meta, [("source", model.source), ("target", model.target)]
    if isinstance(model, FfnnModel):
        meta = {"config": asdict(model.config), "dtype": model.weights[0].dtype.name}
        arrays = _net_arrays("", model)
        arrays.append(("loss_trace", np.asarray(model.loss_trace, dtype=np.float64)))
        return "ffnn", meta, arrays
    meta = {
        "max_stages": model.max_stages,
        "seed": model.seed,
        "base_config": asdict(model.base_config),
        "variables": list(model.variables) if model.variables else None,
        "n_features": model.n_features,
        "stage_counts": [len(nets) for nets in model.stages],
        "stage_seeds": [[net.config.seed for net in nets] for nets in model.stages],
        "dtype": model.stages[0][0].weights[0].dtype.name,
    }
    arrays = []
    for vi, (nets, weights) in enumerate(zip(model.stages, model.stage_weights)):
        arrays.append((f"v{vi}_weights", weights))
        for si, net in enumerate(nets):
            arrays.extend(_net_arrays(f"v{vi}s{si}_", net))
    return "boosted", meta, arrays


def save_model(model, dest) -> None:
    kind, meta, arrays = _collect(model)
    header = {
        "kind": kind,
        "source_format": _format_dict(model.source_format),
        "target_format": _format_dict(model.target_format),
        "meta": meta,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(blob))
    out += blob
    for _, a in arrays:
        out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    _emit(bytes(out), dest)


def _read_all(source) -> bytes:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_bytes()


_HEADER_KEYS = ("kind", "source_format", "target_format", "meta", "arrays")
_META_KEYS = {
    "linear": (),
    "knn": ("k",),
    "ffnn": ("config",),
    "boosted": (
        "max_stages", "seed", "base_config", "variables", "n_features",
        "stage_counts", "stage_seeds",
    ),
}


def _read_header(raw) -> tuple[dict, int]:
    """The checked JSON header and the offset where the payload starts."""
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise ParseError("not a model file (bad magic)")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise ParseError("truncated model header")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # undecodable, not JSON, too deep or too long
        raise ParseError(f"corrupt model header: {e}") from None
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise ParseError("model header must be an object with keys: " + ", ".join(_HEADER_KEYS))
    kind = header["kind"]
    if not isinstance(kind, str) or kind not in _META_KEYS:
        raise ParseError(f"unknown model kind {kind!r}")
    meta = header["meta"]
    if not isinstance(meta, dict) or any(k not in meta for k in _META_KEYS[kind]):
        raise ParseError(f"{kind} model meta must be an object with keys {list(_META_KEYS[kind])}")
    if not isinstance(header["arrays"], list):
        raise ParseError("model header 'arrays' must be a list")
    return header, 12 + header_len


def _read_arrays(raw, entries, offset) -> dict:
    """Slice the payload by the header's manifest; its length must match exactly."""
    arrays = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ParseError(f"malformed array entry {entry!r}")
        count = math.prod(shape)
        if offset + 8 * count > len(raw):
            raise ParseError(f"truncated payload for array {name!r}")
        arrays[name] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += 8 * count
    if offset != len(raw):
        raise ParseError(f"{len(raw) - offset} trailing bytes after the model payload")
    return arrays


def load_model(source):
    raw = _read_all(source)
    header, offset = _read_header(raw)
    arrays = _read_arrays(raw, header["arrays"], offset)
    # past the structural checks, a missing array or a mistyped meta value
    # surfaces as one of these while the model is built
    try:
        formats = [_format_from(header[side]) for side in ("source_format", "target_format")]
        model = _build(header["kind"], header["meta"], arrays, formats)
    except (LookupError, TypeError, ValueError) as e:
        raise ParseError(f"malformed {header['kind']} model header: {e!r}") from None
    model.source_format, model.target_format = formats
    return model


def _matrix(arrays, name) -> tuple[int, int]:
    shape = arrays[name].shape
    if len(shape) != 2:
        raise ParseError(f"array {name!r} must be 2-D, got shape {list(shape)}")
    return shape


def _expect(arrays, name, shape) -> None:
    if arrays[name].shape != shape:
        raise ParseError(
            f"array {name!r} has shape {list(arrays[name].shape)}, expected {list(shape)}"
        )


def _check_net(arrays, prefix, hidden_sizes, d, t) -> None:
    """Each layer's W/b must chain d -> hidden_sizes -> t."""
    sizes = (d, *hidden_sizes, t)
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        _expect(arrays, f"{prefix}W{i}", (fan_out, fan_in))
        _expect(arrays, f"{prefix}b{i}", (fan_out,))


def _net_dtype(meta) -> str:
    """The dtype the networks were saved in; files without one trained in float64."""
    dtype = meta.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise ParseError(f"network dtype must be 'float32' or 'float64', got {dtype!r}")
    return dtype


def _layers(arrays, prefix, n_layers, dtype) -> tuple[list, list]:
    """A network's weights and biases, cast back to the dtype it was saved in."""
    return tuple(
        [arrays[f"{prefix}{kind}{i}"].astype(dtype) for i in range(n_layers)] for kind in "Wb"
    )


def _check_formats(d, t, source_format, target_format) -> None:
    for side, fmt, size in (("source", source_format, d), ("target", target_format, t)):
        if fmt is not None and len(fmt.variables) != size:
            raise ParseError(
                f"{side} format {fmt.name!r} has {len(fmt.variables)} variables "
                f"but the model arrays have {size}"
            )


def _build(kind, meta, arrays, formats):
    """The model the arrays describe, its formats checked but not yet bound."""
    if kind == "linear":
        t, d = _matrix(arrays, "W")
        _expect(arrays, "b", (t,))
        _check_formats(d, t, *formats)
        model = LinearModel()
        model.W = arrays["W"]
        model.b = arrays["b"]
        return model
    if kind == "knn":
        n, d = _matrix(arrays, "source")
        n_target, t = _matrix(arrays, "target")
        if n < 1 or n_target != n:
            raise ParseError(
                f"knn arrays 'source' and 'target' need the same positive "
                f"number of rows, got {n} and {n_target}"
            )
        _check_formats(d, t, *formats)
        model = KnnModel(k=meta["k"])
        model.source = np.ascontiguousarray(arrays["source"])
        model.target = np.ascontiguousarray(arrays["target"])
        return model
    if kind == "ffnn":
        cfg = FfnnConfig(**meta["config"])
        n_layers = len(cfg.hidden_sizes) + 1
        d = _matrix(arrays, "W0")[1]
        t = _matrix(arrays, f"W{n_layers - 1}")[0]
        _check_net(arrays, "", cfg.hidden_sizes, d, t)
        _check_formats(d, t, *formats)
        weights, biases = _layers(arrays, "", n_layers, _net_dtype(meta))
        return FfnnModel(
            cfg,
            weights=weights,
            biases=biases,
            loss_trace=arrays["loss_trace"].tolist(),
        )
    if kind == "boosted":
        base = FfnnConfig(**meta["base_config"])
        dtype = _net_dtype(meta)
        n_features = meta["n_features"]
        counts = meta["stage_counts"]
        variables = meta["variables"]
        if type(n_features) is not int:
            raise ParseError(f"boosted n_features must be an integer, got {n_features!r}")
        if not isinstance(counts, list) or any(type(c) is not int or c < 1 for c in counts):
            raise ParseError(f"boosted stage_counts must be positive integers, got {counts!r}")
        if variables and len(variables) != len(counts):
            raise ParseError(
                f"boosted model has {len(variables)} variables but {len(counts)} stage counts"
            )
        _check_formats(n_features, len(counts), *formats)
        model = BoostedEnsemble(
            stages=meta["max_stages"], base_config=base, seed=meta["seed"]
        )
        model.variables = tuple(variables) if variables else None
        model.n_features = n_features
        n_net_layers = len(base.hidden_sizes) + 1
        model.stages = []
        model.stage_weights = []
        for vi, count in enumerate(counts):
            _expect(arrays, f"v{vi}_weights", (count,))
            model.stage_weights.append(arrays[f"v{vi}_weights"])
            nets = []
            for si in range(count):
                prefix = f"v{vi}s{si}_"
                _check_net(arrays, prefix, base.hidden_sizes, n_features, 1)
                weights, biases = _layers(arrays, prefix, n_net_layers, dtype)
                cfg = replace(base, seed=meta["stage_seeds"][vi][si])
                nets.append(FfnnModel(cfg, weights=weights, biases=biases))
            model.stages.append(nets)
        return model
