"""Scenario configuration: a single JSON document with documented defaults.

Every field is optional; omitted fields take the defaults below, so the
empty document ``{}`` is a valid configuration.  Unknown keys are
rejected.  ``z_r`` and ``z_l`` default to the receive coil resistance
(matched resistive load at resonance) when null or omitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from tricoil.circuit import LinkParams
from tricoil.experiments import DEFAULT_DELTA, DEFAULT_MAX_ITER, Scenario
from tricoil.geometry import FRAME_MODES, FRAME_ORTHONORMAL
from tricoil.magnetics import FORMULA_CANONICAL, FORMULA_MODES, CoilSpec


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration documents."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full run configuration: scenario, solver controls, and output settings.

    Construction validates every field, ``dataclasses.replace`` included,
    and raises :class:`ConfigError` naming the first invalid one.
    """

    turns: int = 10
    radius: float = 0.1
    wire_resistance_per_meter: float = 0.01
    current_amplitude: float = 2.0
    rx_center: tuple = (1.0, 1.0, 1.5)
    frequency_hz: float = 1.0e7
    z_r: float | None = None
    z_l: float | None = None
    delta: float = DEFAULT_DELTA
    max_iter: int = DEFAULT_MAX_ITER
    angles: int = 360
    seed: int = 42
    out_dir: str = "out"
    frame_mode: str = FRAME_ORTHONORMAL
    formula_mode: str = FORMULA_CANONICAL

    def __post_init__(self):
        _validate(self)

    def coil(self) -> CoilSpec:
        return CoilSpec(
            turns=self.turns,
            radius=self.radius,
            wire_resistance_per_meter=self.wire_resistance_per_meter,
        )

    def link_params(self) -> LinkParams:
        coil = self.coil()
        base = LinkParams.matched(
            coil, coil, frequency_hz=self.frequency_hz, current_amplitude=self.current_amplitude
        )
        z_r = base.z_r if self.z_r is None else self.z_r
        z_l = base.z_l if self.z_l is None else self.z_l
        return LinkParams(omega=base.omega, r_t=base.r_t, z_r=z_r, z_l=z_l, p0=base.p0)

    def scenario(self) -> Scenario:
        coil = self.coil()
        return Scenario(
            tx=coil,
            rx=coil,
            rx_center=np.asarray(self.rx_center, dtype=float),
            link=self.link_params(),
            frame_mode=self.frame_mode,
            formula_mode=self.formula_mode,
        )


_POSITIVE_FIELDS = ("radius", "wire_resistance_per_meter", "current_amplitude", "frequency_hz", "delta")


def _is_int(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and int(value) == value


def _validate(cfg: ScenarioConfig) -> None:
    if not _is_int(cfg.turns) or cfg.turns < 1:
        raise ConfigError(f"field 'turns' must be a positive integer, got {cfg.turns!r}")
    for name in _POSITIVE_FIELDS:
        value = getattr(cfg, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
            raise ConfigError(f"field {name!r} must be a positive number, got {value!r}")
    for name in ("z_r", "z_l"):
        value = getattr(cfg, name)
        if value is not None and (not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0):
            raise ConfigError(f"field {name!r} must be null or a positive number, got {value!r}")
    center = cfg.rx_center
    if len(center) != 3 or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in center):
        raise ConfigError(f"field 'rx_center' must be a list of 3 numbers, got {center!r}")
    if not np.all(np.isfinite(np.asarray(center, dtype=float))):
        raise ConfigError("field 'rx_center' must contain finite numbers")
    if np.linalg.norm(np.asarray(center, dtype=float)) == 0.0:
        raise ConfigError("field 'rx_center' must not coincide with the transmitter origin")
    if not _is_int(cfg.max_iter) or cfg.max_iter < 1:
        raise ConfigError(f"field 'max_iter' must be a positive integer, got {cfg.max_iter!r}")
    if not _is_int(cfg.angles) or cfg.angles < 2:
        raise ConfigError(f"field 'angles' must be an integer >= 2, got {cfg.angles!r}")
    if not _is_int(cfg.seed):
        raise ConfigError(f"field 'seed' must be an integer, got {cfg.seed!r}")
    if not isinstance(cfg.out_dir, str) or not cfg.out_dir:
        raise ConfigError(f"field 'out_dir' must be a nonempty string, got {cfg.out_dir!r}")
    if cfg.frame_mode not in FRAME_MODES:
        raise ConfigError(f"field 'frame_mode' must be one of {FRAME_MODES}, got {cfg.frame_mode!r}")
    if cfg.formula_mode not in FORMULA_MODES:
        raise ConfigError(f"field 'formula_mode' must be one of {FORMULA_MODES}, got {cfg.formula_mode!r}")


def parse_config(text) -> ScenarioConfig:
    """Parse a JSON configuration document; raises ConfigError with context."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"configuration is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(raw).__name__}")

    known = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    values = dict(raw)
    if "rx_center" in values:
        if not isinstance(values["rx_center"], (list, tuple)):
            raise ConfigError(f"field 'rx_center' must be a list of 3 numbers, got {values['rx_center']!r}")
        values["rx_center"] = tuple(values["rx_center"])
    return ScenarioConfig(**values)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Serialize to JSON; ``parse_config(serialize_config(cfg))`` round-trips exactly."""
    payload = {}
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    return json.dumps(payload, indent=2) + "\n"
