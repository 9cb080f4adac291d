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
import math
import numbers
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

    def __post_init__(self) -> None:
        # k_points: a mode count numpy can index; KGrid: k_halfwidth > 0
        k = self.k_points
        if k is not None and not (isinstance(k, numbers.Integral)
                                  and 1 < k < 2**63):
            raise ValueError(f"run setting 'k_points' must be an integer "
                             f"> 1 and < 2**63, got {k!r}")
        # a non-bool real whose float is finite (an int past 1.8e308 overflows)
        for name, low in (("t_end", 0), ("dt", 0), ("k_halfwidth", -math.inf)):
            x = getattr(self, name)
            try:
                ok = x is None or (isinstance(x, numbers.Real)
                                   and not isinstance(x, bool)
                                   and math.isfinite(float(x)) and x > low)
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(f"run setting {name!r} must be a finite "
                                 f"number > {low}, got {x!r}")

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
# [atom.N] key -> its AtomParams field, in file order
_ATOM_FIELDS = {"z": "position", "gamma_l": "gamma_l", "gamma_r": "gamma_r"}
# section (None: the top level) -> its keys, each with its value type
_SECTIONS = {None: {"omega_a": float, "label": str},
             **{f"atom.{i}": dict.fromkeys(_ATOM_FIELDS, float)
                for i in (1, 2)},
             "run": RUN_FIELD_TYPES}


def parse_config_text(text: str, origin: str = "<string>"
                      ) -> tuple[NetworkConfig, RunSettings]:
    """Parse the config format; raises ParseError with line/field context."""
    values: dict[str | None, dict] = {None: {}}   # section -> key -> value
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{origin}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"{where}: unknown section [{section}]")
            if section in values:
                raise ParseError(f"{where}: repeated section [{section}]")
            values[section] = {}
            continue
        if "=" not in line:
            raise ParseError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if key in values[section]:
            raise ParseError(f"{where}: repeated field {key!r}")
        typ = _SECTIONS[section].get(key)
        if typ is None:
            name = "top-level" if section is None else f"[{section}]"
            raise ParseError(f"{where}: unknown {name} field {key!r}")
        x = value if typ is str else _number(value, key, where)
        if typ is int and not x.is_integer():
            raise ParseError(f"{where}: field {key!r} is not "
                             f"an integer: {value!r}")
        x = typ(x)
        if section == "run":
            try:
                RunSettings(**{key: x})
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
        values[section][key] = x

    top = values[None]
    if "omega_a" not in top:
        raise ParseError(f"{origin}: missing required field 'omega_a'")
    if "atom.1" not in values:
        raise ParseError(f"{origin}: missing required section [atom.1]")
    atoms = []
    for sec in [s for s in ("atom.1", "atom.2") if s in values]:
        fields = values[sec]
        missing = _ATOM_FIELDS.keys() - fields.keys()
        if missing:
            raise ParseError(
                f"{origin}: [{sec}] missing field(s) {sorted(missing)}")
        atoms.append(AtomParams(**{_ATOM_FIELDS[k]: v
                                   for k, v in fields.items()}))
    config = NetworkConfig(atoms=tuple(atoms), omega_a=top["omega_a"],
                           label=top.get("label", ""))
    return config, RunSettings(**values.get("run", {}))


def _number(value: str, key: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(
            f"{where}: field {key!r} is not a number: {value!r}") from None


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
        lines.append(f"[atom.{i}]")
        lines += [f"{key} = {fmt(getattr(atom, name))}"
                  for key, name in _ATOM_FIELDS.items()]
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
    """Deterministic CSV: given identical arrays, the bytes are identical.
    A complex column `name` is written as `name_re`, `name_im`."""
    if not columns or len(header) != len(columns):
        raise ValueError("header/column count mismatch or no column")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must share a length")
    names, values = [], []
    for name, col in zip(header, map(np.asarray, columns)):
        split = np.iscomplexobj(col)
        names += [f"{name}_re", f"{name}_im"] if split else [name]
        values += [col.real, col.imag] if split else [col]
    # "%.17g" % x gives the bytes of fmt(x), special values included
    row = ",".join(["%.17g"] * len(values))
    out = [",".join(names)]
    out += [row % v for v in zip(*(c.tolist() for c in values))]
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
