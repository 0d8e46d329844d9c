"""Problem-definition documents for the command line.

Two encodings of the same flat schema are accepted: a JSON document, or a
key = value text where vectors are whitespace/comma separated and matrices
separate rows with ';'.  The channel block nests in JSON
({"channel": {"transition": ..., "input_probs": ...}}) and flattens to
channel_transition / channel_input_probs keys in the text form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capacity import Channel
from .chain import ChainSystem, from_rd_problem
from .errors import ConfigError
from .multiconstraint import RdProblem2
from .ratedistortion import RdProblem

__all__ = ["ProblemConfig", "load_config"]

_VECTOR_KEYS = {"source_probs", "coding_probs", "channel_input_probs"}
_MATRIX_KEYS = {"distortion", "distortion_2", "observable", "channel_transition"}
_SCALAR_KEYS = {"beta", "k", "temperature"}
_ALL_KEYS = _VECTOR_KEYS | _MATRIX_KEYS | _SCALAR_KEYS


@dataclass
class ProblemConfig:
    source_probs: np.ndarray | None = None
    coding_probs: np.ndarray | None = None
    distortion: np.ndarray | None = None
    distortion_2: np.ndarray | None = None
    observable: np.ndarray | None = None
    channel_transition: np.ndarray | None = None
    channel_input_probs: np.ndarray | None = None
    beta: float | None = None
    k: float = 1.0
    temperature: float = 1.0

    def _need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"config field '{name}' is required for this command")
        return value

    def rd_problem(self) -> RdProblem:
        return RdProblem(
            source_probs=self._need("source_probs"),
            coding_probs=self._need("coding_probs"),
            distortion=self._need("distortion"),
        )

    def rd_problem2(self) -> RdProblem2:
        return RdProblem2(
            source_probs=self._need("source_probs"),
            coding_probs=self._need("coding_probs"),
            distortion_1=self._need("distortion"),
            distortion_2=self._need("distortion_2"),
        )

    def channel(self) -> Channel:
        return Channel(
            transition=self._need("channel_transition"),
            input_probs=self._need("channel_input_probs"),
        )

    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        if self.k * self.temperature == 0.0:
            raise ConfigError(f"k * temperature must not be 0 (got k = {self.k!r}, temperature = {self.temperature!r})")
        return 1.0 / (self.k * self.temperature)

    def chain_system(self) -> ChainSystem:
        system = from_rd_problem(self.rd_problem(), beta=self.effective_beta())
        return ChainSystem(system.arrays, beta=system.beta, boltzmann_k=self.k)


def _as_vector(raw, key: str) -> np.ndarray:
    if isinstance(raw, str):
        parts = raw.replace(",", " ").split()
        try:
            return np.array([float(t) for t in parts])
        except ValueError as exc:
            raise ConfigError(f"config field '{key}': could not parse number ({exc})") from None
    try:
        vec = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}' must be a numeric vector") from None
    if vec.ndim != 1:
        raise ConfigError(f"config field '{key}' must be a one-dimensional vector")
    return vec


def _as_matrix(raw, key: str) -> np.ndarray:
    if isinstance(raw, str):
        rows = [r for r in raw.split(";") if r.strip()]
        if not rows:
            raise ConfigError(f"config field '{key}' must contain at least one row")
        parsed = [_as_vector(r, key) for r in rows]
        widths = {p.size for p in parsed}
        if len(widths) != 1:
            raise ConfigError(f"config field '{key}': rows have unequal lengths")
        return np.vstack(parsed)
    try:
        mat = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}' must be a numeric matrix") from None
    if mat.ndim != 2:
        raise ConfigError(f"config field '{key}' must be a two-dimensional matrix")
    return mat


def _as_scalar(raw, key: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config field '{key}' must be a real number") from None
    if not math.isfinite(value):
        raise ConfigError(f"config field '{key}' must be finite")
    return value


def _from_mapping(doc: dict) -> ProblemConfig:
    cfg = ProblemConfig()
    flat = dict(doc)
    channel = flat.pop("channel", None)
    if channel is not None:
        if not isinstance(channel, dict):
            raise ConfigError("config field 'channel' must be an object with transition and input_probs")
        for sub, target in (("transition", "channel_transition"), ("input_probs", "channel_input_probs")):
            if sub in channel:
                if target in flat:
                    raise ConfigError(f"config fields 'channel.{sub}' and '{target}' give the same field twice")
                flat[target] = channel.pop(sub)
        if channel:
            raise ConfigError(f"unknown config field 'channel.{sorted(channel)[0]}'")
    for key, raw in flat.items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config field '{key}'")
        if key in _VECTOR_KEYS:
            setattr(cfg, key, _as_vector(raw, key))
        elif key in _MATRIX_KEYS:
            setattr(cfg, key, _as_matrix(raw, key))
        else:
            setattr(cfg, key, _as_scalar(raw, key))
    return cfg


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key (``json`` keeps its last value)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate config field '{key}'")
        doc[key] = value
    return doc


def _parse_flat(text: str, path: str) -> ProblemConfig:
    doc: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in doc:
            raise ConfigError(f"{path}:{lineno}: duplicate config field '{key}'")
        doc[key] = value.strip()
    return _from_mapping(doc)


def load_config(path) -> ProblemConfig:
    """Read a problem definition, sniffing JSON versus key = value text."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    head = text.lstrip()
    if p.suffix.lower() == ".json" or head.startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{p}: top-level JSON value must be an object")
        return _from_mapping(doc)
    return _parse_flat(text, str(p))
