"""Config-file parsing and deterministic CSV / manifest output.

Config format: flat UTF-8 key/value text with `#` comments and sections.
Top-level keys `omega_a` and optional `label` precede the sections
`[atom.1]`, `[atom.2]` (optional) with keys z, gamma_l, gamma_r, and an
optional `[run]` section whose keys are the `RunSettings` fields.

CSV: header row, comma separated, floats serialized with 17 significant
digits (lossless double round-trip), complex columns split into _re/_im.
Data files carry no timestamps; the run manifest does.
"""
from __future__ import annotations

import datetime as _dt
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .errors import ParseError
from .model import AtomParams, NetworkConfig, default_halfwidth


@dataclass(frozen=True)
class RunSettings:
    """The numerical plan of a run: horizon, step and mode grid.  A field
    left None takes its default from `resolved`."""

    t_end: float | None = None
    dt: float | None = None
    k_points: int | None = None
    k_halfwidth: float | None = None

    def merged(self, **overrides) -> "RunSettings":
        """A copy with every override that is not None; an unknown field
        name raises TypeError, whatever its value."""
        unknown = overrides.keys() - asdict(self).keys()
        if unknown:
            raise TypeError(f"unknown RunSettings field(s) {sorted(unknown)}")
        return replace(self, **{k: v for k, v in overrides.items()
                                if v is not None})

    def resolved(self, config: NetworkConfig) -> "RunSettings":
        """A copy with every field set.  The default plan: dt = min(delay)/64,
        t_end = 40 z_1, 1001 modes over `model.default_halfwidth`."""
        t_end = 40.0 * config.atoms[0].position if self.t_end is None else self.t_end
        return RunSettings(
            t_end=t_end,
            dt=min(config.delays) / 64 if self.dt is None else self.dt,
            k_points=1001 if self.k_points is None else self.k_points,
            k_halfwidth=default_halfwidth(config, t_end)
            if self.k_halfwidth is None else self.k_halfwidth)


# field name -> scalar type, for the [run] section and the CLI flags
RUN_FIELD_TYPES = {name: get_args(hint)[0]
                   for name, hint in get_type_hints(RunSettings).items()}
_ATOM_KEYS = {"z", "gamma_l", "gamma_r"}
_TOP_KEYS = {"omega_a", "label"}


def parse_config_text(text: str, origin: str = "<string>"
                      ) -> tuple[NetworkConfig, RunSettings]:
    """Parse the config format; raises ParseError with line/field context."""
    top: dict[str, str] = {}
    atoms: dict[str, dict[str, float]] = {}
    run: dict[str, float | int] = {}
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("atom.1", "atom.2", "run"):
                raise ParseError(f"{origin}:{lineno}: unknown section [{section}]")
            if section.startswith("atom."):
                atoms.setdefault(section, {})
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if section is None:
            if key not in _TOP_KEYS:
                raise ParseError(f"{origin}:{lineno}: unknown top-level field {key!r}")
            top[key] = value
        elif section == "run":
            if key not in RUN_FIELD_TYPES:
                raise ParseError(f"{origin}:{lineno}: unknown [run] field {key!r}")
            x = _number(value, key, origin, lineno)
            if RUN_FIELD_TYPES[key] is int and not x.is_integer():
                raise ParseError(f"{origin}:{lineno}: field {key!r} is not "
                                 f"an integer: {value!r}")
            run[key] = RUN_FIELD_TYPES[key](x)
        else:
            if key not in _ATOM_KEYS:
                raise ParseError(f"{origin}:{lineno}: unknown [{section}] field {key!r}")
            atoms[section][key] = _number(value, key, origin, lineno)

    if "omega_a" not in top:
        raise ParseError(f"{origin}: missing required field 'omega_a'")
    if "atom.1" not in atoms:
        raise ParseError(f"{origin}: missing required section [atom.1]")

    omega_a = _number(top["omega_a"], "omega_a", origin, 0)

    def build_atom(sec: str) -> AtomParams:
        d = atoms[sec]
        missing = _ATOM_KEYS - d.keys()
        if missing:
            raise ParseError(
                f"{origin}: [{sec}] missing field(s) {sorted(missing)}")
        return AtomParams(position=d["z"], gamma_l=d["gamma_l"],
                          gamma_r=d["gamma_r"])

    atom_list = [build_atom("atom.1")]
    if "atom.2" in atoms:
        atom_list.append(build_atom("atom.2"))
    config = NetworkConfig(atoms=tuple(atom_list), omega_a=omega_a,
                           label=top.get("label", ""))
    return config, RunSettings(**run)


def _number(value: str, key: str, origin: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(
            f"{origin}:{lineno}: field {key!r} is not a number: {value!r}"
        ) from None


def parse_config_file(path: str | Path) -> tuple[NetworkConfig, RunSettings]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: cannot read config: {exc}") from exc
    return parse_config_text(text, origin=str(p))


def format_config(config: NetworkConfig, settings: RunSettings | None = None
                  ) -> str:
    """Inverse of parse_config_text; values round-trip exactly."""
    lines = [f"omega_a = {fmt(config.omega_a)}"]
    if config.label:
        lines.append(f"label = {config.label}")
    for i, atom in enumerate(config.atoms, start=1):
        lines += [f"[atom.{i}]",
                  f"z = {fmt(atom.position)}",
                  f"gamma_l = {fmt(atom.gamma_l)}",
                  f"gamma_r = {fmt(atom.gamma_r)}"]
    if settings is not None:
        entries = [(k, v) for k, v in asdict(settings).items()
                   if v is not None]
        if entries:
            lines.append("[run]")
            lines += [f"{k} = {v if isinstance(v, int) else fmt(v)}"
                      for k, v in entries]
    return "\n".join(lines) + "\n"


def fmt(x: float) -> str:
    """17-significant-digit float serialization (lossless round trip)."""
    return format(float(x), ".17g")


def write_csv(path: str | Path, header: list[str],
              columns: list[np.ndarray]) -> Path:
    """Deterministic CSV: given identical arrays, the bytes are identical."""
    if len(header) != len(columns):
        raise ValueError("header/column count mismatch")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    # "%.17g" % x gives the bytes of fmt(x), special values included
    row = ",".join(["%.17g"] * len(columns))
    out = [",".join(header)]
    out += [row % values
            for values in zip(*(np.asarray(c).tolist() for c in columns))]
    p = Path(path)
    p.write_text("\n".join(out) + "\n", encoding="utf-8")
    return p


def write_manifest(path: str | Path, entries: dict) -> Path:
    """Structured key=value manifest; carries the only timestamp of a run."""
    lines = [f"timestamp = {_dt.datetime.now(_dt.timezone.utc).isoformat()}"]
    for key in sorted(entries):
        lines.append(f"{key} = {entries[key]}")
    p = Path(path)
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p
