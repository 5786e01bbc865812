"""Run configuration: JSON schema, validation, and builders.

A run configuration is a single JSON document validated against
:data:`CONFIG_SCHEMA` before any work happens; unknown keys are rejected
at every level.  All randomness derives from the one ``master_seed``.
"""

from __future__ import annotations

import copy
import hashlib
import json

import jsonschema

from .analysis import DEFAULT_CELL_WIDTHS, DEFAULT_COUNTS_PER_AXIS, DEFAULT_MIN_MEAN, CellGrid
from .simulate import HomScanConfig, SourceConfig

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "default_config",
    "load_config",
    "validate_config",
    "config_digest",
    "source_config",
    "cell_grid",
    "hom_config",
    "analysis_params",
]

_TRIPLE = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "number"},
}
_TRIPLE_POS_INT = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "integer", "minimum": 1},
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["master_seed"],
    "properties": {
        "master_seed": {"type": "integer", "minimum": 0},
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nu_per_mode": {"type": "number", "minimum": 0},
                "eta": {"type": "number", "minimum": 0, "maximum": 1},
                "shots": {"type": "integer", "minimum": 1},
                "peak_width": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {"type": "null"},
                    ]
                },
                "mode_widths": _TRIPLE,
                "mode_spacing": _TRIPLE,
                "modes_per_axis": _TRIPLE_POS_INT,
                "grid_center": _TRIPLE,
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "origin": {"anyOf": [_TRIPLE, {"type": "null"}]},
                "cell_widths": _TRIPLE,
                "counts_per_axis": _TRIPLE_POS_INT,
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "min_mean": {"type": "number", "minimum": 0},
                "bootstrap_resamples": {"type": "integer", "minimum": 2},
            },
        },
        "hom": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t2_values": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number"},
                },
                "t0": {"type": "number"},
                "sigma_m": {"type": "number", "exclusiveMinimum": 0},
                "t1": {"type": "number"},
                "nu": {"type": "number", "minimum": 0},
                "eta": {"type": "number", "minimum": 0, "maximum": 1},
                "shots_per_point": {"type": "integer", "minimum": 1},
            },
        },
        "visibility": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nu": {"type": "number", "exclusiveMinimum": 0},
                "nu_std": {"type": "number", "minimum": 0},
            },
        },
    },
}


class ConfigError(ValueError):
    """Configuration failed schema validation or is unusable."""


def default_config() -> dict:
    """A complete configuration reproducing the published run geometry."""
    return {
        "master_seed": 20260811,
        "source": {
            "nu_per_mode": 4.5,
            "eta": 0.25,
            "shots": 1876,
            "peak_width": 6.25,
            "mode_widths": [4.125, 4.125, 1.875],
            "mode_spacing": [8.25, 8.25, 3.75],
            "modes_per_axis": [5, 5, 7],
            "grid_center": [0.0, 0.0, 0.0],
        },
        "grid": {
            "origin": None,
            "cell_widths": list(DEFAULT_CELL_WIDTHS),
            "counts_per_axis": list(DEFAULT_COUNTS_PER_AXIS),
        },
        "analysis": {"min_mean": DEFAULT_MIN_MEAN, "bootstrap_resamples": 1000},
        "hom": {
            "t2_values": [round(-260.0 + i * 520.0 / 12.0, 6) for i in range(13)],
            "t0": 0.0,
            "sigma_m": 86.0,
            "t1": 1000.0,
            "nu": 0.33,
            "eta": 0.25,
            "shots_per_point": 800,
        },
        "visibility": {"nu": 0.33, "nu_std": 0.07},
    }


def validate_config(doc: dict) -> dict:
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    return doc


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return validate_config(doc)


def config_digest(doc: dict) -> str:
    """Digest of the canonical serialization; stable under key reordering."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _merged(section: dict, defaults: dict) -> dict:
    merged = copy.deepcopy(defaults)
    merged.update(section or {})
    return merged


def source_config(doc: dict, seed: int = None) -> SourceConfig:
    section = _merged(doc.get("source"), default_config()["source"])
    return SourceConfig(
        nu_per_mode=section["nu_per_mode"],
        eta=section["eta"],
        shots=section["shots"],
        master_seed=doc["master_seed"] if seed is None else seed,
        peak_width=section["peak_width"],
        mode_widths=tuple(section["mode_widths"]),
        mode_spacing=tuple(section["mode_spacing"]),
        modes_per_axis=tuple(section["modes_per_axis"]),
        grid_center=tuple(section["grid_center"]),
    )


def cell_grid(doc: dict) -> CellGrid:
    section = _merged(doc.get("grid"), default_config()["grid"])
    widths = tuple(section["cell_widths"])
    counts = tuple(section["counts_per_axis"])
    if section["origin"] is None:
        return CellGrid.centered(widths, counts)
    return CellGrid(tuple(section["origin"]), widths, counts)


def hom_config(doc: dict, seed: int = None) -> HomScanConfig:
    section = _merged(doc.get("hom"), default_config()["hom"])
    return HomScanConfig(
        t2_values=tuple(section["t2_values"]),
        t0=section["t0"],
        sigma_m=section["sigma_m"],
        t1=section["t1"],
        nu=section["nu"],
        eta=section["eta"],
        shots_per_point=section["shots_per_point"],
        master_seed=doc["master_seed"] if seed is None else seed,
    )


def analysis_params(doc: dict) -> dict:
    return _merged(doc.get("analysis"), default_config()["analysis"])
