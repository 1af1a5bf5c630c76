"""JSON config files: schema, validation with pointer errors, builders.

A config document has four sections — ``operator`` (spectrum and noise
exponents), ``coefficients`` (built-in drift family and its parameters),
``sim`` (time horizon, steps, ensemble size, seed, initial states) and
``study`` (which curve to produce and on what grid).  The schema rejects
unknown keys outright: silent typos like ``n_mode`` are the main failure
mode of flat config files, and every key here changes the physics.
``describe`` runs the builders backwards: it writes the sections of the
built objects a study was given.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np

from .coefficients import BuiltinFamily, CoefficientSet
from .multiscale import MultiscaleConfig
from .solver import SimConfig
from .spectral import ConfigError, OperatorSpec

__all__ = [
    "SCHEMA",
    "ConfigError",
    "load_config",
    "build_spec",
    "build_coeffs",
    "build_sim",
    "build_multiscale",
    "build_eta",
    "build_replicas",
    "describe",
]

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_FIELD = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
    ]
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["operator", "coefficients", "sim"],
    "properties": {
        "operator": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_modes", "a", "b", "g"],
            "properties": {
                "n_modes": {"type": "integer", "minimum": 1},
                "a": _POS,
                "b": _NUM,
                "g": _NUM,
                "c_lambda": _POS,
                "c_beta": _POS,
                "c_gamma": _POS,
                "alpha": {"type": "number", "exclusiveMinimum": 1, "exclusiveMaximum": 2},
                "theta": _POS,
                "p": {"type": "number", "minimum": 1},
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant"],
            "properties": {
                "variant": {"type": "string"},
                "a": _NUM,
                "b_mu": _NUM,
                "c": _NUM,
                "K": {"type": "integer", "minimum": 1},
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["T", "h", "M", "seed"],
            "properties": {
                "T": _POS,
                "h": _POS,
                "h_fast": _POS,
                "M": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
                "xi": _FIELD,
                "eta": _FIELD,
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {
                    "enum": ["simulate", "picard", "ergodicity", "rate", "hoelder", "aux-gap"]
                },
                "grid": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 1,
                },
                "m": _POS,
                "lambda_weight": _POS,
                "out_dir": {"type": "string"},
                "epsilon": _POS,
                "h_fast_ratio": _POS,
                "n_iters": {"type": "integer", "minimum": 2},
                "n_replicas": {"type": "integer", "minimum": 1},
                "ensemble": {"type": "integer", "minimum": 2},
                "h_step": _POS,
            },
        },
    },
}


def _pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(tok) for tok in error.absolute_path)


def load_config(path, seed: int | None = None) -> dict:
    """Read and schema-validate a JSON config, raising ConfigError on failure.

    The error message carries a JSON pointer to the offending key, e.g.
    ``/operator/alpha: 2.5 is greater than ...``.  ``seed``, when given,
    replaces sim.seed before the check, so an override meets the schema too.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict) and isinstance(doc.get("sim"), dict):
        doc["sim"]["seed"] = seed
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        raise ConfigError(first.message, pointer=_pointer(first))
    return doc


def build_spec(cfg: dict) -> OperatorSpec:
    return OperatorSpec(**cfg["operator"])


def build_coeffs(cfg: dict, spec: OperatorSpec) -> CoefficientSet:
    sect = cfg["coefficients"]
    return BuiltinFamily(
        variant=sect["variant"],
        a=sect.get("a", 1.0),
        b_mu=sect.get("b_mu", 0.5),
        c=sect.get("c", 0.5),
        n_active=sect.get("K"),
    ).build(spec)


def build_sim(cfg: dict, spec: OperatorSpec, coeffs: CoefficientSet) -> SimConfig:
    sect = cfg["sim"]
    try:
        return SimConfig(
            spec=spec,
            coeffs=coeffs,
            T=float(sect["T"]),
            h=float(sect["h"]),
            M=int(sect["M"]),
            seed=int(sect["seed"]),
            xi=sect.get("xi", 0.0),
        )
    except ConfigError as exc:  # placing xi is the one rule without a pointer
        raise exc.at("/sim/xi") from None


def build_eta(cfg: dict, spec: OperatorSpec) -> np.ndarray:
    """sim.eta (0 when absent) as a field of ``spec.n_modes`` modes."""
    try:
        return spec.as_field(cfg["sim"].get("eta", 0.0))
    except ConfigError as exc:
        raise exc.at("/sim/eta") from None


def build_multiscale(cfg: dict, base: SimConfig) -> MultiscaleConfig:
    """Two-scale config for studies at a fixed epsilon (hoelder, aux-gap).

    Reads sim.h_fast and study.epsilon; both must be present.
    """
    sect = cfg["sim"]
    study = cfg.get("study", {})
    if "h_fast" not in sect:
        raise ConfigError("this study needs a fast step", pointer="/sim/h_fast")
    if "epsilon" not in study:
        raise ConfigError("this study needs a timescale ratio", pointer="/study/epsilon")
    eta = build_eta(cfg, base.spec)
    try:
        return MultiscaleConfig(
            base=base,
            epsilon=float(study["epsilon"]),
            h_fast=float(sect["h_fast"]),
            eta=eta,
        )
    except ConfigError as exc:  # the h_fast rules raise without a pointer
        raise exc.at("/sim/h_fast") from None


def build_replicas(cfg: dict, default: int) -> int:
    """study.n_replicas (``default`` when absent), checked against sim.M.

    Every replica is an interacting system of at least M // n_replicas
    particles, and a one-particle system has no interaction.
    """
    n = cfg.get("study", {}).get("n_replicas", default)
    M = cfg["sim"]["M"]
    if M // n < 2:
        raise ConfigError(
            f"cannot split M={M} particles into {n} interacting systems "
            "of at least 2 particles",
            pointer="/study/n_replicas",
        )
    return n


def describe(spec: OperatorSpec, coeffs: CoefficientSet, sim: SimConfig | None = None) -> dict:
    """Config sections that ``build_spec``, ``build_coeffs`` and ``build_sim`` read back.

    The ``coefficients`` section holds the set's recipe; a set without one
    is described by its variant alone.  Callers add their ``study`` section.
    """
    out = {"operator": dataclasses.asdict(spec), "coefficients": {"variant": coeffs.variant}}
    if coeffs.recipe is not None:
        family = coeffs.recipe[0]
        out["coefficients"].update(a=family.a, b_mu=family.b_mu, c=family.c)
        if family.n_active is not None:
            out["coefficients"]["K"] = family.n_active
    if sim is not None:
        out["sim"] = {"T": sim.T, "h": sim.h, "M": sim.M, "seed": sim.seed,
                      "xi": [float(v) for v in sim.xi]}
    return out
