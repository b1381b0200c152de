"""Plain-text run configuration: `key = value` lines under `[section]` headers.

Comments start with '#'; duplicate keys, unknown keys and float values that
are not finite (nan, inf) are rejected with line numbers; every key has a
default, so an empty file is a valid config.  Every key name is unique
across the sections, so a key may be given without a section header.
Parsing builds the model, scene and training specs once, so a value the
library rejects is a ConfigError before any command runs.  The raw text is
kept for verbatim echo into run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .evaluation import threshold_grid
from .network import (FUSION_HIDDEN, GLOBAL_LAYERS, GLOBAL_PATHWAY, INPUT_WIDTHS, LOCAL_LAYERS,
                      LOCAL_PATHWAY, PathwaySpec, TrainConfig, parse_layers)
from .synth import SceneSpec


class ConfigError(ValueError):
    """Malformed configuration file."""


def _positive(v):
    if v <= 0:
        raise ValueError("must be positive")


def _nonneg(v):
    if v < 0:
        raise ValueError("must be nonnegative")


def _unit(v):
    if not (0.0 <= v <= 1.0):
        raise ValueError("must lie in [0, 1]")


def _choice(*options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}")
    return check


def _step_range(v):
    if not (0.0 < v <= 0.5):
        raise ValueError("must lie in (0, 0.5]")


# section -> key -> (type tag, default, validator or None)
_SCHEMA = {
    "model": {
        "variant": ("str", "dual", _choice("dual", "local", "global")),
        "local_layers": ("str", LOCAL_LAYERS, None),
        "local_embed": ("int", LOCAL_PATHWAY.embed_width, _positive),
        "global_layers": ("str", GLOBAL_LAYERS, None),
        "global_embed": ("int", GLOBAL_PATHWAY.embed_width, _positive),
        "fusion_hidden": ("str", ", ".join(map(str, FUSION_HIDDEN)), None),
        "init_seed": ("int", 0, None),
    },
    "train": {
        "batch_size": ("int", 10, _positive),
        "learning_rate": ("float", 1e-4, _nonneg),
        "momentum": ("float", 0.9, _unit),
        "weight_decay": ("float", 5e-4, _nonneg),
        "epochs": ("int", 30, _positive),
        "seed": ("int", 0, None),
        "clamp_eps": ("float", 1e-7, None),  # TrainConfig checks the range
        "reduction": ("str", "sum", _choice("sum", "mean")),
        "stop_loss": ("float", 0.0, _nonneg),  # 0 disables early stopping
        "samples_per_scene": ("int", 128, _positive),
        "positive_fraction": ("float", 0.5, _unit),
        "sampler": ("str", "random", _choice("random", "grid")),
    },
    "eval": {
        "rho": ("int", 3, _nonneg),
        "aggregate": ("str", "mean_f", _choice("mean_f", "pooled")),
        "threshold_step": ("float", 0.01, _step_range),
    },
    "tree": {
        "grid_step": ("float", 0.01, _step_range),
        "tol": ("float", 1e-4, _positive),
        "max_cycles": ("int", 20, _positive),
        "min_houses": ("int", 15, _positive),
    },
    "count": {
        "threshold": ("float", 0.5, _unit),
        "erode_radius": ("int", 1, _nonneg),
        "erode_iterations": ("int", 1, _nonneg),
        "connectivity": ("int", 8, _choice(4, 8)),
        "iou_threshold": ("float", 0.5, _unit),
        "strict_iou": ("bool", True, None),
    },
    "scene": {
        "width": ("int", 512, None),
        "height": ("int", 512, None),
        "count": ("int", 1, _positive),
        "houses_min": ("int", 45, _nonneg),
        "houses_max": ("int", 75, _nonneg),
        "house_px_min": ("int", 8, _positive),
        "house_px_max": ("int", 16, _positive),
        "clusters": ("int", 2, _nonneg),
        "cluster_radius": ("float", 80.0, _positive),
        "texture": ("float", 0.5, _nonneg),
        "occluders": ("float", 0.15, _unit),
    },
}


def _convert(raw: str, kind: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not finite")
        return value
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError("not a boolean")
    return raw


@dataclass
class RunConfig:
    """Typed view of a config file plus its verbatim text for provenance."""

    values: dict  # section -> key -> typed value
    raw_text: str
    origin: str = "<defaults>"

    def get(self, section: str, key: str):
        return self.values[section][key]

    # -- derived objects -----------------------------------------------------

    def model_specs(self):
        """({prefix: PathwaySpec} of the variant's pathways, fusion widths); a
        value the network rejects is a ConfigError naming the file and key."""
        model, key = self.values["model"], None
        try:
            pathways = {}
            for prefix, width in INPUT_WIDTHS.items():
                key = f"{prefix}_layers"
                if model["variant"] in ("dual", prefix):
                    spec = PathwaySpec(parse_layers(model[key]), model[f"{prefix}_embed"], width)
                    spec.flat_size()  # raises on a layer that cannot run
                    pathways[prefix] = spec
            key = "fusion_hidden"
            hidden = tuple(int(v) for v in model[key].split(",")) \
                if model[key].strip() else FUSION_HIDDEN
            if any(v <= 0 for v in hidden):
                raise ValueError("widths must be positive")
        except ValueError as exc:
            raise ConfigError(f"{self.origin}: [model] {key}: {exc}") from None
        return pathways, hidden

    def train_config(self, epochs: int | None = None) -> TrainConfig:
        """TrainConfig from the [train] keys of its field names; `epochs` overrides."""
        values = {f.name: self.get("train", f.name) for f in fields(TrainConfig)}
        if epochs is not None:
            values["epochs"] = epochs
        return TrainConfig(**values)

    def scene_spec(self, seed: int) -> SceneSpec:
        return SceneSpec(
            width=self.get("scene", "width"),
            height=self.get("scene", "height"),
            house_count=(self.get("scene", "houses_min"), self.get("scene", "houses_max")),
            house_px=(self.get("scene", "house_px_min"), self.get("scene", "house_px_max")),
            clusters=self.get("scene", "clusters"),
            cluster_radius=self.get("scene", "cluster_radius"),
            texture=self.get("scene", "texture"),
            occluders=self.get("scene", "occluders"),
            seed=seed,
        )

    def eval_thresholds(self) -> tuple:
        return threshold_grid(self.get("eval", "threshold_step"))


def default_config() -> RunConfig:
    return parse_config_text("", origin="<defaults>")


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    values = {section: {key: spec[1] for key, spec in keys.items()}
              for section, keys in _SCHEMA.items()}
    seen: dict = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        raw_value = raw_value.strip()
        target = section or next((s for s, keys in _SCHEMA.items() if key in keys), None)
        if target is None or key not in _SCHEMA[target]:
            where = f" in [{section}]" if section else ""
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}'{where}")
        if (target, key) in seen:
            raise ConfigError(f"{origin}:{lineno}: duplicate key '{key}' "
                              f"(lines {seen[(target, key)]} and {lineno})")
        seen[(target, key)] = lineno
        kind, _, validator = _SCHEMA[target][key]
        try:
            value = _convert(raw_value, kind)
        except ValueError:
            finite = "finite " if kind == "float" else ""
            raise ConfigError(f"{origin}:{lineno}: key '{key}' expects a {finite}{kind}, "
                              f"got '{raw_value}'") from None
        if validator is not None:
            try:
                validator(value)
            except ValueError as exc:
                raise ConfigError(f"{origin}:{lineno}: key '{key}': {exc}") from None
        values[target][key] = value

    # cross-key checks
    if values["scene"]["houses_max"] < values["scene"]["houses_min"]:
        raise ConfigError(f"{origin}: houses_max < houses_min")
    if values["scene"]["house_px_max"] < values["scene"]["house_px_min"]:
        raise ConfigError(f"{origin}: house_px_max < house_px_min")
    cfg = RunConfig(values=values, raw_text=text, origin=origin)
    # build what the commands build, so a value the library rejects fails here
    cfg.model_specs()
    try:
        cfg.scene_spec(seed=0)
        cfg.train_config()
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    return parse_config_text(text, origin=str(path))
