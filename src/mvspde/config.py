"""JSON config files: schema, validation with pointer errors, builders.

A config document has four sections — ``operator`` (spectrum and noise
exponents), ``coefficients`` (built-in drift family and its parameters),
``sim`` (time horizon, steps, ensemble size, seed, initial states) and
``study`` (which curve to produce and on what grid).  The schema rejects
unknown keys outright: silent typos like ``n_mode`` are the main failure
mode of flat config files, and every key here changes the physics.
``SCHEMA`` is written in JSON Schema (draft 2020-12); a small interpreter
of exactly the keywords it uses checks documents against it, so checking
a config costs no schema library.  Two rules go beyond the draft: a
non-finite number (Python's ``json`` reads ``NaN`` and ``Infinity``, RFC
8259 has neither) is rejected at its key, and an integral float at an
``integer`` key (``16.0``) is admitted, as the draft does, and handed on
as an ``int``.
``STUDIES``, the study table, names the keys each study kind reads and
those it requires; ``check_keys`` holds a config to it and to the family
keys of ``coefficients.FAMILY_KEYS``.  ``describe`` runs the builders
backwards: it writes the sections of the built objects a study was given,
and the study's keys where the table reads them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from pathlib import Path

import numpy as np

from .coefficients import FAMILY_KEYS, BuiltinFamily, CoefficientSet
from .multiscale import MultiscaleConfig
from .solver import SimConfig
from .spectral import ConfigError, OperatorSpec

__all__ = [
    "SCHEMA",
    "STUDIES",
    "BASE_KEYS",
    "REQUIRED",
    "ConfigError",
    "check_keys",
    "load_config",
    "build_spec",
    "build_coeffs",
    "build_sim",
    "build_multiscale",
    "build_eta",
    "describe",
]


# Study kind -> section -> the keys it reads past BASE_KEYS, which every
# kind reads.  An optional study key reaches the study function as the keyword
# argument of its name, so its default lives in the signature alone.  The
# one key a kind may set unread is a zero sim.eta, which means what an absent
# one does: simulate and picard step no fast equation, yet one physics block
# with its eta can serve every subcommand, as perfbench's picard workload does.
BASE_KEYS = {"sim": ("T", "h", "M", "seed", "xi"), "study": ("kind", "out_dir")}
STUDIES = {
    "simulate": {"study": ("m",)},
    "picard": {"study": ("n_iters", "lambda_weight")},
    "ergodicity": {"sim": ("eta",), "study": ("grid", "ensemble", "h_step")},
    "rate": {"sim": ("eta",), "study": ("grid", "m", "h_fast_ratio", "n_replicas")},
    "hoelder": {"sim": ("h_fast", "eta"), "study": ("grid", "epsilon", "n_replicas")},
    "aux-gap": {"sim": ("h_fast", "eta"), "study": ("grid", "epsilon", "n_replicas")},
}
# the keys without a default, in every kind that reads them
REQUIRED = ("h_fast", "grid", "epsilon")

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
                "kind": {"enum": list(STUDIES)},
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


# JSON type name -> test; a bool is no number, and a number is finite
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and math.isfinite(v)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {  # keyword -> (value breaks it, message)
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
_KEYWORDS = frozenset(["$schema", "type", "properties", "required", "additionalProperties",
                      "enum", "items", "minItems", "oneOf", *_BOUNDS])


def _check(value, schema: dict, path: list, errors: list):
    """Append ``(path, message)`` for each rule of ``schema`` that ``value`` breaks.

    Keywords apply in the schema's order, as the draft's validators apply
    them.  Returns ``value`` with every integral float at an ``integer``
    key turned into an ``int``.
    """
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                why = "" if not isinstance(value, float) or math.isfinite(value) else \
                    " (JSON numbers are finite)"
                errors.append((path, f"{value!r} is not of type {arg!r}{why}"))
            elif arg == "integer":
                value = int(value)
        elif key in _BOUNDS and _TYPES["number"](value) and _BOUNDS[key][0](value, arg):
            errors.append((path, f"{value!r} {_BOUNDS[key][1]} {arg!r}"))
        elif key == "enum" and value not in arg:
            errors.append((path, f"{value!r} is not one of {arg!r}"))
        elif isinstance(value, dict) and key == "additionalProperties":
            extra = sorted(set(value) - set(schema.get("properties", ())))
            if extra:
                errors.append((path, f"additional properties are not allowed: {extra}"))
        elif isinstance(value, dict) and key == "required":
            errors.extend((path, f"{name!r} is a required property")
                          for name in arg if name not in value)
        elif isinstance(value, dict) and key == "properties":
            for name, sub in arg.items():
                if name in value:
                    value[name] = _check(value[name], sub, [*path, name], errors)
        elif isinstance(value, list) and key == "minItems" and len(value) < arg:
            errors.append((path, f"{value!r} should be non-empty" if arg == 1
                           else f"{value!r} is too short"))
        elif isinstance(value, list) and key == "items":
            value = [_check(v, arg, [*path, i], errors) for i, v in enumerate(value)]
        elif key == "oneOf":
            trials = []
            for sub in arg:
                sub_errors = []
                trials.append((_check(value, sub, path, sub_errors), sub_errors))
            passed = [checked for checked, errs in trials if not errs]
            if len(passed) == 1:
                value = passed[0]
            else:
                why = "; ".join(errs[0][1] for _, errs in trials)
                errors.append((path, f"{value!r} matches more than one of its forms" if passed
                               else f"{value!r} matches none of its forms: {why}"))
    return value


def _assert_interpretable(schema: dict) -> None:
    """Raise unless ``_check`` handles every keyword and value ``schema`` and its parts use.

    ``_check`` knows one type name per schema, ``additionalProperties: false``
    alone and enums of strings.
    """
    if (set(schema) - _KEYWORDS or schema.get("type", "object") not in list(_TYPES)
            or schema.get("additionalProperties", False) is not False
            or not all(isinstance(e, str) for e in schema.get("enum", ()))):
        raise NotImplementedError(f"the config checker cannot interpret {schema}")
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ()),
                *([schema["items"]] if "items" in schema else ())]:
        _assert_interpretable(sub)


_assert_interpretable(SCHEMA)


def _validate(doc):
    """``doc`` checked against ``SCHEMA``, integral floats at integer keys made ``int``.

    Raises ConfigError at the JSON pointer of the first error in path order.
    ``doc`` itself is updated in place.
    """
    errors = []
    doc = _check(doc, SCHEMA, [], errors)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigError(message, pointer="/" + "/".join(str(tok) for tok in path))
    return doc


def load_config(path, seed: int | None = None) -> dict:
    """Read and schema-check a JSON config, raising ConfigError on failure.

    The error message carries a JSON pointer to the first offending key in
    path order, e.g. ``/operator/alpha: 2.5 is greater than ...``.  A
    non-finite number (``NaN``, ``Infinity``) is an error at its key; an
    integral float at an ``integer`` key comes back as an ``int``, so
    ``"M": 16.0`` loads as ``16``.  ``seed``, when given, replaces sim.seed
    before the check, so an override meets the schema too.
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
    return _validate(doc)


def build_spec(cfg: dict) -> OperatorSpec:
    return OperatorSpec(**cfg["operator"])


def build_coeffs(cfg: dict, spec: OperatorSpec) -> CoefficientSet:
    sect = cfg["coefficients"]
    keys = FAMILY_KEYS.get(sect["variant"], {})  # an unknown variant fails in the build
    return BuiltinFamily(sect["variant"], **{name: sect[key] for key, name in keys.items()
                                             if key in sect}).build(spec)


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

    Reads the sim.h_fast and study.epsilon that the table requires of them.
    """
    for pointer, message in _missing(cfg, "hoelder"):
        raise ConfigError(message, pointer)
    try:
        return MultiscaleConfig(
            base=base,
            epsilon=float(cfg["study"]["epsilon"]),
            h_fast=float(cfg["sim"]["h_fast"]),
            eta=build_eta(cfg, base.spec),
        )
    except ConfigError as exc:  # the h_fast rules raise without a pointer
        raise exc.at("/sim/h_fast") from None


def _reads(kind: str) -> dict:
    """Section -> the keys study ``kind`` reads there."""
    return {section: keys + STUDIES[kind].get(section, ())
            for section, keys in BASE_KEYS.items()}


def _missing(cfg: dict, kind: str) -> list:
    """(pointer, message) of each key ``kind`` requires that ``cfg`` leaves out."""
    return [(f"/{section}/{key}", "is required, and has no default")
            for section, keys in _reads(kind).items()
            for key in keys if key in REQUIRED and key not in cfg.get(section, {})]


def check_keys(cfg: dict, kind: str | None) -> None:
    """Raise ConfigError unless ``cfg`` sets only keys that are read, and every required one.

    A declared kind other than ``kind`` is the first fault; then the first,
    in pointer order, of a key that the family or ``kind`` does not read
    and a key that ``kind`` requires; a zero sim.eta counts as unset.  ``kind``
    None checks the family alone.
    """
    declared = cfg.get("study", {}).get("kind", kind)
    if declared != kind:
        raise ConfigError(f"config declares study kind '{declared}' but the '{kind}' "
                          "subcommand was invoked", "/study/kind")
    reads = {"coefficients": ("variant", *FAMILY_KEYS[cfg["coefficients"]["variant"]]),
             **(_reads(kind) if kind else {})}
    faults = [(f"/{section}/{key}", f"{value!r} is set, but the "
               f"{'family' if section == 'coefficients' else 'study'} does not read it")
              for section, keys in reads.items() for key, value in cfg.get(section, {}).items()
              if key not in keys and not (key == "eta" and not np.any(value))]
    faults += _missing(cfg, kind) if kind else []
    if faults:
        pointer, message = min(faults)
        raise ConfigError(message, pointer)


def describe(spec: OperatorSpec, coeffs: CoefficientSet, sim: SimConfig | None = None,
             kind: str | None = None, **keys) -> dict:
    """Config sections that the builders read back, with study ``kind``'s ``keys``.

    The ``coefficients`` section holds the set's recipe as its family's
    keys; a set without one is described by its variant alone.  With
    ``kind``, a ``study`` section names it, and each of ``keys`` that is not
    None goes to the section the study table reads it from.
    """
    out = {"operator": dataclasses.asdict(spec), "coefficients": {"variant": coeffs.variant}}
    if coeffs.recipe is not None:
        family = coeffs.recipe[0]
        for key, name in FAMILY_KEYS[family.variant].items():
            if getattr(family, name) is not None:
                out["coefficients"][key] = getattr(family, name)
    if sim is not None:
        out["sim"] = {key: getattr(sim, key) for key in BASE_KEYS["sim"]}
    if kind is not None:
        out["study"] = {"kind": kind}
        section_of = {key: section for section, names in _reads(kind).items() for key in names}
        for key, value in keys.items():
            if value is not None:
                out.setdefault(section_of[key], {})[key] = value
    return out
