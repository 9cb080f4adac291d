"""Domain types and the elementary coupling amplitude.

Units: hbar = c = v_g = 1 throughout, so positions double as one-way
propagation delays and gamma**2 carries the dimension of a rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCoupling, InvalidFrequency, InvalidGeometry, InvalidGrid

# The continuum is normalized so that a k-integral of e^{ik(u-t)} acts as a
# unit-weight delta in time.  A discretized mode at spacing dk therefore
# couples with amplitude g(k)/sqrt(2*pi) while quadratures keep plain dk
# weights; this is the only convention under which the delay-form amplitude
# equations, the discretized-continuum oracle, and norm conservation agree.
MODE_MEASURE = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AtomParams:
    """One two-level emitter: position and directional coupling amplitudes."""

    position: float
    gamma_l: float
    gamma_r: float

    def __post_init__(self) -> None:
        for name, g in (("gamma_l", self.gamma_l), ("gamma_r", self.gamma_r)):
            if not math.isfinite(g):
                raise InvalidCoupling(f"{name} must be finite, got {g!r}")
            if g < 0.0:
                raise InvalidCoupling(f"{name} must be >= 0, got {g!r}")
        if not math.isfinite(self.position) or self.position <= 0.0:
            raise InvalidGeometry(
                f"atom position must be > 0 (mirror sits at z = 0), got {self.position!r}"
            )

    @property
    def damping(self) -> float:
        """Half the total emission rate, (gamma_r^2 + gamma_l^2)/2."""
        return 0.5 * (self.gamma_r**2 + self.gamma_l**2)

    @property
    def feedback(self) -> float:
        """Mirror round-trip feedback coefficient gamma_l * gamma_r."""
        return self.gamma_l * self.gamma_r

    @property
    def is_chiral(self) -> bool:
        return self.gamma_l != self.gamma_r


@dataclass(frozen=True)
class NetworkConfig:
    """One or two atoms in front of the mirror, sharing resonance omega_a."""

    atoms: tuple[AtomParams, ...]
    omega_a: float
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        validate_config(self)

    @property
    def round_trip_delays(self) -> tuple[float, ...]:
        """tau_j = 2 z_j, the mirror round-trip delay of each atom."""
        return tuple(2.0 * a.position for a in self.atoms)

    @property
    def delays(self) -> tuple[float, ...]:
        """2 z_1, then 2 z_2, z_1 + z_2, z_2 - z_1 for two atoms; two may
        coincide (z_2 = 3 z_1 gives 2 z_1 = z_2 - z_1 up to rounding)."""
        if len(self.atoms) == 1:
            return (2.0 * self.atoms[0].position,)
        z1, z2 = self.atoms[0].position, self.atoms[1].position
        return (2.0 * z1, 2.0 * z2, z2 + z1, z2 - z1)

    @property
    def gamma_rl(self) -> float:
        """Sum of the per-atom dampings, (sum_j gamma_jR^2 + gamma_jL^2)/2."""
        return sum(a.damping for a in self.atoms)


def validate_config(config: NetworkConfig) -> NetworkConfig:
    """Check all NetworkConfig invariants; return the config unchanged.

    Raises InvalidGeometry, InvalidCoupling or InvalidFrequency.  Idempotent.
    """
    if not (1 <= len(config.atoms) <= 2):
        raise InvalidGeometry(f"need 1 or 2 atoms, got {len(config.atoms)}")
    for atom in config.atoms:
        if not isinstance(atom, AtomParams):
            raise InvalidGeometry("atoms must be AtomParams instances")
    if len(config.atoms) == 2:
        z1, z2 = config.atoms[0].position, config.atoms[1].position
        if not z2 > z1:
            raise InvalidGeometry(
                f"atom 2 must sit beyond atom 1 (z2 > z1), got z1={z1!r}, z2={z2!r}"
            )
    if not math.isfinite(config.omega_a) or config.omega_a <= 0.0:
        raise InvalidFrequency(f"omega_a must be > 0, got {config.omega_a!r}")
    return config


@dataclass(frozen=True)
class KGrid:
    """Uniform grid of waveguide modes k > 0 with plain-dk quadrature."""

    k_values: np.ndarray = field(repr=False)
    dk: float
    center: float

    def __post_init__(self) -> None:
        k = np.asarray(self.k_values, dtype=float)
        object.__setattr__(self, "k_values", k)
        if k.ndim != 1 or k.size < 2:
            raise InvalidGrid("k_values must be a 1-d array with >= 2 points")
        if not (np.all(np.isfinite(k)) and math.isfinite(self.dk)):
            raise InvalidGrid(f"k_values and dk must be finite, got dk={self.dk!r}")
        diffs = np.diff(k)
        if np.any(diffs <= 0):
            raise InvalidGrid("k_values must be strictly increasing")
        if np.max(np.abs(diffs - self.dk)) > 1e-12 * max(abs(self.dk), 1.0):
            raise InvalidGrid("k_values must be uniformly spaced (rel tol 1e-12)")
        if k[0] <= 0.0:
            raise InvalidGrid(f"all modes must satisfy k > 0, got k_min={k[0]!r}")

    def __len__(self) -> int:
        return int(self.k_values.size)

    @classmethod
    def centered(cls, center: float, half_width: float, n: int) -> "KGrid":
        """Grid of n modes on [center - half_width, center + half_width]."""
        if n < 2:
            raise InvalidGrid(f"need at least 2 modes, got {n}")
        if not (math.isfinite(half_width) and half_width > 0.0):
            raise InvalidGrid(f"need finite half_width > 0, got {half_width!r}")
        k = np.linspace(center - half_width, center + half_width, n)
        return cls(k_values=k, dk=float(k[1] - k[0]), center=float(center))

    def subsample(self, stride: int) -> "KGrid":
        """Every stride-th mode; requires the endpoint to stay on the grid."""
        if stride < 1 or (len(self) - 1) % stride != 0:
            raise InvalidGrid(
                f"stride {stride} does not preserve the grid endpoints (n={len(self)})"
            )
        k = self.k_values[::stride]
        return KGrid(k_values=k, dk=float(k[1] - k[0]), center=self.center)


def default_halfwidth(config: NetworkConfig, t_end: float) -> float:
    """Half-width of the emission window: wide enough for the Lorentzian
    lines emitted over a horizon t_end, clipped to keep k > 0."""
    half = max(25.0 * config.gamma_rl, 40.0 * 2.0 * math.pi / t_end)
    return min(half, 0.98 * config.omega_a)


def coupling_g(k, t: float, atom: AtomParams, omega_a: float):
    """Directional coupling amplitude of one atom to mode k at time t.

    g = i (gamma_r e^{-ikz} - gamma_l e^{+ikz}) e^{i(k - omega_a) t}; in the
    nonchiral case this reduces to 2 gamma sin(kz) e^{i(k - omega_a) t}.
    Accepts scalar or array k.  |g| <= gamma_r + gamma_l always.
    """
    k = np.asarray(k, dtype=float)
    phase = np.exp(1j * (k - omega_a) * t)
    g = 1j * (atom.gamma_r * np.exp(-1j * k * atom.position)
              - atom.gamma_l * np.exp(1j * k * atom.position)) * phase
    return g if g.ndim else complex(g)


def coupling_row(kgrid: KGrid, atom: AtomParams) -> np.ndarray:
    """Per-mode coupling at t = 0 in the discrete-mode normalization,
    g(k, 0)/sqrt(2 pi); the e^{i(k-omega_a)t} factor is applied by solvers."""
    return MODE_MEASURE * coupling_g(kgrid.k_values, 0.0, atom, kgrid.center)
