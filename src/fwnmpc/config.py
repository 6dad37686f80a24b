"""Strict YAML loaders for model parameters and full scenario files.

Every mapping is validated against the exact field names of the target type;
unknown keys are hard errors. Human-entered angle fields use a `_deg` suffix
in the file and are converted to radians on load; coefficient-like model
parameters are plain SI.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import yaml

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.sim import Event, Scenario


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return node


def _check_keys(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc


def _integer(value, where: str) -> int:
    """`value` as an int; a non-integral number is an error, not truncated."""
    try:
        integral = int(value) == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _build_dataclass(cls, node: dict, where: str):
    names = [f.name for f in dataclasses.fields(cls)]
    _check_keys(node, names, where)
    try:
        return cls(**{k: float(v) for k, v in node.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_model_params(source) -> md.ModelParams:
    """Load a model parameter file: closed_loop / open_loop / constants maps."""
    node = source if isinstance(source, dict) else yaml.safe_load(Path(source).read_text())
    node = _require_mapping(node, "model params")
    _check_keys(node, ("closed_loop", "open_loop", "constants"), "model params")
    return md.ModelParams(
        closed_loop=_build_dataclass(md.ClosedLoopParams,
                                     _require_mapping(node.get("closed_loop"),
                                                      "closed_loop"), "closed_loop"),
        open_loop=_build_dataclass(md.OpenLoopParams,
                                   _require_mapping(node.get("open_loop"),
                                                    "open_loop"), "open_loop"),
        constants=_build_dataclass(md.PhysicalConstants,
                                   _require_mapping(node.get("constants"),
                                                    "constants"), "constants"),
    )


_SEGMENT_KEYS = {"line": ("type", "b", "chi_p_deg", "gamma_p_deg"),
                 "arc": ("type", "c", "r_signed", "chi_p_deg", "gamma_p_deg"),
                 "loiter": ("type", "c", "r_signed")}


def _load_segment(node: dict, index: int) -> pth.PathSegment:
    where = f"segments[{index}]"
    node = _require_mapping(node, where)
    kind = node.get("type")
    if kind not in _SEGMENT_KEYS:
        raise ConfigError(f"{where}: segment type must be line, arc, or loiter")
    _check_keys(node, _SEGMENT_KEYS[kind], where)
    try:
        if kind == "line":
            return pth.LineSegment(b=node["b"], chi_p=np.radians(float(node["chi_p_deg"])),
                                   gamma_p=np.radians(float(node.get("gamma_p_deg", 0.0))))
        if kind == "arc":
            return pth.ArcSegment(c=node["c"], r_signed=float(node["r_signed"]),
                                  chi_p=np.radians(float(node["chi_p_deg"])),
                                  gamma_p=np.radians(float(node.get("gamma_p_deg", 0.0))))
        return pth.LoiterSegment(c=node["c"], r_signed=float(node["r_signed"]))
    except KeyError as exc:
        raise ConfigError(f"{where}: missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_OCP_DEG_FIELDS = {"phi_ref_max_deg": "phi_ref_max", "theta_ref_max_deg": "theta_ref_max",
                   "alpha_minus_deg": "alpha_minus", "alpha_plus_deg": "alpha_plus",
                   "delta_alpha_deg": "delta_alpha"}
_OCP_PLAIN_FIELDS = ("n_steps", "t_step", "t_iter", "cold_start_sqp_iter", "u_t_min", "u_t_max")


def _load_ocp(node: dict) -> nmpc_ocp.OcpConfig:
    node = _require_mapping(node, "ocp")
    _check_keys(node, list(_OCP_PLAIN_FIELDS) + list(_OCP_DEG_FIELDS), "ocp")
    kwargs = {}
    for key, value in node.items():
        if key in _OCP_DEG_FIELDS:
            kwargs[_OCP_DEG_FIELDS[key]] = float(np.radians(_float(value, f"ocp.{key}")))
        elif key in ("n_steps", "cold_start_sqp_iter"):
            kwargs[key] = _integer(value, f"ocp.{key}")
        else:
            kwargs[key] = _float(value, f"ocp.{key}")
    return nmpc_ocp.OcpConfig(**kwargs)


def _load_weights(node: dict) -> nmpc_ocp.Weights:
    node = _require_mapping(node, "weights")
    _check_keys(node, ("q_y", "r_z", "p_end", "y_scale", "z_scale"), "weights")
    defaults = nmpc_ocp.default_weights()
    kwargs = {}
    for name in ("q_y", "r_z", "p_end", "y_scale", "z_scale"):
        kwargs[name] = np.asarray(node[name], dtype=float) if name in node \
            else getattr(defaults, name)
    return nmpc_ocp.Weights(**kwargs)


def _load_switching(node: dict) -> pth.SwitchConfig:
    node = _require_mapping(node, "switching")
    _check_keys(node, ("r_acpt", "eta_acpt_deg", "rho_sw", "sw_threshold"), "switching")
    kwargs = {}
    if "r_acpt" in node:
        kwargs["r_acpt"] = float(node["r_acpt"])
    if "eta_acpt_deg" in node:
        kwargs["eta_acpt"] = float(np.radians(float(node["eta_acpt_deg"])))
    if "rho_sw" in node:
        kwargs["rho_sw"] = float(node["rho_sw"])
    if "sw_threshold" in node:
        kwargs["sw_threshold"] = float(node["sw_threshold"])
    return pth.SwitchConfig(**kwargs)


def load_scenario(source) -> Scenario:
    """Load a scenario file covering every configuration type."""
    node = source if isinstance(source, dict) else yaml.safe_load(Path(source).read_text())
    node = _require_mapping(node, "scenario")
    allowed = ("name", "duration", "seed", "plant_dt", "v_a_ref", "wind",
               "initial_state", "segments", "model", "controller_model", "ocp",
               "weights", "guidance", "switching", "events", "measurement_noise")
    _check_keys(node, allowed, "scenario")
    for key in ("name", "duration", "segments", "initial_state"):
        if key not in node:
            raise ConfigError(f"scenario: missing required key {key!r}")

    if not isinstance(node["segments"], list):
        raise ConfigError("segments: expected a list of segments")
    segments = tuple(_load_segment(seg, i) for i, seg in enumerate(node["segments"]))
    if not segments:
        raise ConfigError("scenario: segments list is empty")

    initial = _build_dataclass(md.AircraftState,
                               _require_mapping(node["initial_state"], "initial_state"),
                               "initial_state")
    wind = _build_dataclass(md.WindVector, _require_mapping(node.get("wind"), "wind"),
                            "wind")
    plant = load_model_params(node["model"]) if "model" in node else md.default_params()
    controller = load_model_params(node["controller_model"]) \
        if "controller_model" in node else None
    guidance_cfg = _build_dataclass(gd.GuidanceConfig,
                                    _require_mapping(node.get("guidance"), "guidance"),
                                    "guidance")

    events = []
    for i, ev in enumerate(node.get("events", []) or []):
        ev = _require_mapping(ev, f"events[{i}]")
        _check_keys(ev, ("time", "kind"), f"events[{i}]")
        try:
            events.append(Event(time=float(ev["time"]), kind=str(ev["kind"])))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"events[{i}]: {exc}") from exc

    noise = node.get("measurement_noise")
    if noise is not None:
        noise = dict(_require_mapping(noise, "measurement_noise"))

    try:
        return Scenario(
            name=str(node["name"]),
            initial_state=initial,
            segments=segments,
            duration=_float(node["duration"], "duration"),
            v_a_ref=_float(node.get("v_a_ref", 13.5), "v_a_ref"),
            wind=wind,
            plant_params=plant,
            controller_params=controller,
            ocp=_load_ocp(node.get("ocp")),
            weights=_load_weights(node.get("weights")),
            guidance=guidance_cfg,
            switching=_load_switching(node.get("switching")),
            events=tuple(events),
            plant_dt=_float(node.get("plant_dt", 0.01), "plant_dt"),
            seed=_integer(node.get("seed", 0), "seed"),
            measurement_noise=noise,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
