"""Named scenario presets and the CSV-producing run pipelines.

Each preset pins a network configuration plus the numerical plan (horizon,
step, mode grid) under which its headline behavior is measurable: two-photon
emission (fig2), single-photon trapping with a persistently excited atom
(fig3), the dark state and its off-node contrast (fig4_solid / fig4_dashed),
single-atom packet emission (fig5), and excitation hopping between two
distant atoms (fig6).

Horizons are chosen so the asymptotics actually develop: the doubly excited
amplitude of fig2 (population rate ~0.73) needs t ~ 16 before the one-photon
sectors drain below 2%, and fig3's (rate 0.25) needs t ~ 25 before
|c_ee|^2 < 0.01.  The other presets run the default horizon 40 z_1; every
preset steps at the default dt of `RunSettings.resolved`.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, frequency
from .dde import Trajectory
from .errors import UnknownPreset
from .frequency import (analytic_cee_markov, classify_steady_state,
                        solve_cee, solve_spectral_pair, stream_two_photon,
                        two_photon_norm)
# solve_two_photon is not called here: bench/tracing.py wraps
# wqsim.presets.solve_two_photon by name
from .frequency import solve_two_photon  # noqa: F401
from .model import AtomParams, KGrid, NetworkConfig
from .runio import _ATOM_FIELDS, RunSettings, write_csv, write_manifest
from .spatial import (check_mirror_boundary, field_snapshot,
                      single_excitation_norm, solve_single_atom,
                      solve_two_atom_single_excitation)

_WA = 50.0
_N_CHECKPOINTS = 9


@dataclass(frozen=True)
class Preset:
    """A named scenario: configuration plus run plan."""

    name: str
    config: NetworkConfig
    settings: RunSettings
    kind: str          # a key of PIPELINES
    notes: str = ""


def _plan(config: NetworkConfig, **pinned) -> RunSettings:
    """`pinned`, and the default t_end and dt of `RunSettings.resolved`."""
    full = RunSettings(**pinned).resolved(config)
    return replace(RunSettings(**pinned), t_end=full.t_end, dt=full.dt)


def _preset_table() -> dict[str, Preset]:
    fig2_cfg = NetworkConfig(
        atoms=(AtomParams(0.1, 0.25, 0.5), AtomParams(0.2, 0.25, 0.5)),
        omega_a=_WA, label="fig2")
    fig3_cfg = NetworkConfig(
        atoms=(AtomParams(math.pi / _WA, 0.25, 0.25),
               AtomParams(2 * math.pi / _WA, 0.5, 0.0)),
        omega_a=_WA, label="fig3")
    fig4s_cfg = NetworkConfig(
        atoms=(AtomParams(math.pi / _WA, 0.5, 0.5),
               AtomParams(2 * math.pi / _WA, 0.5, 0.5)),
        omega_a=_WA, label="fig4_solid")
    fig4d_cfg = NetworkConfig(
        atoms=(AtomParams(math.pi / (2 * _WA), 0.5, 0.5),
               AtomParams(3 * math.pi / (2 * _WA), 0.5, 0.5)),
        omega_a=_WA, label="fig4_dashed")
    fig5_cfg = NetworkConfig(
        atoms=(AtomParams(2.25 * math.pi / _WA, 0.1, 0.3),),
        omega_a=_WA, label="fig5")
    fig6_cfg = NetworkConfig(
        atoms=(AtomParams(1.0, 0.25, 0.25), AtomParams(10.0, 0.1, 0.5)),
        omega_a=_WA, label="fig6")

    presets = [
        Preset(
            "fig2", fig2_cfg,
            _plan(fig2_cfg, t_end=16.0, k_points=1001, k_halfwidth=45.0),
            "cascade",
            "both atoms chirally coupled: full decay into a two-photon state"),
        Preset(
            "fig3", fig3_cfg,
            _plan(fig3_cfg, t_end=25.0, k_points=1001, k_halfwidth=20.0),
            "cascade",
            "atom 1 nonchiral at a node, atom 2 left-coupled only: "
            "one photon emitted, atom 1 stays excited"),
        Preset(
            "fig4_solid", fig4s_cfg,
            _plan(fig4s_cfg),
            "cee", "nonchiral atoms at node positions: dark state"),
        Preset(
            "fig4_dashed", fig4d_cfg,
            _plan(fig4d_cfg),
            "cee", "nonchiral atoms off node: fast decay contrast"),
        Preset(
            "fig5", fig5_cfg,
            _plan(fig5_cfg),
            "spatial", "single chirally coupled atom: emitted packet profile"),
        Preset(
            "fig6", fig6_cfg,
            _plan(fig6_cfg),
            "spatial",
            "distant atoms, one excitation: hopping after the direct delay"),
    ]
    return {p.name: p for p in presets}


PRESETS = _preset_table()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def run_preset(name: str, out_dir: str | Path, plot: bool = False,
               **overrides) -> dict:
    """Run a preset and write its file set under out_dir.

    Returns a summary dict (also serialized into the manifest).  Overrides
    are `RunSettings` fields.
    """
    preset = get_preset(name)
    settings = preset.settings.merged(**overrides)
    return run_pipeline(preset.config, settings, out_dir, kind=preset.kind,
                        name=preset.name, plot=plot)


def run_pipeline(config: NetworkConfig, settings: RunSettings,
                 out_dir: str | Path, kind: str | None = None,
                 name: str = "custom", plot: bool = False) -> dict:
    """Dispatch a configuration to the matching solver pipeline."""
    if kind is None:
        kind = "cascade" if len(config.atoms) == 2 else "spatial"
    if kind not in PIPELINES:
        raise UnknownPreset(f"unknown pipeline kind {kind!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = settings.resolved(config)
    summary = PIPELINES[kind](config, settings, out, plot)
    cls = classify_steady_state(config)
    summary["classify"] = cls.label.value
    manifest = {f"param.{k}": v for k, v in _describe(config, settings).items()}
    manifest.update({f"result.{k}": v for k, v in summary.items()})
    manifest["preset"] = name
    manifest["kind"] = kind
    manifest["wqsim_version"] = __version__
    manifest["numpy_version"] = np.__version__
    if kind == "cascade":   # tiles off the pin follow BLAS's thread count
        manifest["tiles_blas_pinned"] = frequency._openblas() is not None
    write_manifest(out / "manifest.txt", manifest)
    return summary


def _describe(config: NetworkConfig, s: RunSettings) -> dict:
    d = {"omega_a": config.omega_a, "label": config.label, **asdict(s)}
    for i, a in enumerate(config.atoms, 1):
        d.update({f"atom{i}.{key}": getattr(a, field)
                  for key, field in _ATOM_FIELDS.items()})
    return d


def _checkpoint_times(t_end: float) -> np.ndarray:
    return np.linspace(0.0, t_end, _N_CHECKPOINTS + 1)[1:]


def _write_cee_csv(out: Path, cee: Trajectory, markov: np.ndarray
                   ) -> np.ndarray:
    """cee.csv: c_ee with its short-delay closed form alongside and
    |c_ee|^2; returns the last column."""
    sq = np.abs(cee.states[:, 0]) ** 2
    write_csv(out / "cee.csv", ["t", "cee", "cee_markov", "cee_abs2"],
              [cee.times, cee.states[:, 0], markov, sq])
    return sq


def _run_cascade(config: NetworkConfig, s: RunSettings, out: Path,
                 plot: bool) -> dict:
    kgrid = KGrid.centered(config.omega_a, s.k_halfwidth, s.k_points)
    cee = solve_cee(config, s.t_end, s.dt)
    pair = solve_spectral_pair(config, cee, kgrid)
    t_final = pair.t_end
    chk = list(_checkpoint_times(t_final))
    # each checkpoint's node and c_kk norm; each matrix is dropped before
    # the next is built, but the last, which two_photon.csv and the plot show
    t_chk, p2ph = [], []
    for t, ckk in stream_two_photon(pair, chk):
        t_chk.append(t)
        p2ph.append(two_photon_norm(ckk, kgrid))
        if len(p2ph) < len(chk):
            del ckk

    _write_cee_csv(out, cee, analytic_cee_markov(cee.times, config))

    times, p1, p2 = pair.populations_series()
    pee = np.abs(pair.cee) ** 2
    write_csv(out / "populations.csv", ["t", "pe1", "pe2", "cee_abs2"],
              [times, p1, p2, pee])

    # spectra at the final time
    cegk, cgek = pair.cegk[-1], pair.cgek[-1]
    write_csv(out / "spectra.csv",
              ["k", "cegk", "cegk_abs", "cgek", "cgek_abs"],
              [kgrid.k_values, cegk, np.abs(cegk), cgek, np.abs(cgek)])

    # two-photon magnitude grid at the final time, at most 126 modes a side
    stride = math.ceil(len(kgrid) / 126)
    ks = kgrid.k_values[::stride]
    sub = ckk[::stride, ::stride]
    k1g, k2g = np.meshgrid(ks, ks, indexing="ij")
    write_csv(out / "two_photon.csv", ["k1", "k2", "ckk_abs"],
              [k1g.ravel(), k2g.ravel(), np.abs(sub).ravel()])

    # sector norms at checkpoints, the populations read at their nodes
    i, p2ph = np.searchsorted(times, t_chk), np.array(p2ph)
    total = p1[i] + p2[i] - pee[i] + p2ph
    write_csv(out / "norm.csv",
              ["t", "cee_abs2", "pe1", "pe2", "two_photon_norm", "total_norm"],
              [t_chk, pee[i], p1[i], p2[i], p2ph, total])

    summary = {
        "t_final": t_final,
        "cee_abs2_final": float(pee[-1]),
        "pe1_final": float(p1[-1]),
        "pe2_final": float(p2[-1]),
        "two_photon_norm_final": float(p2ph[-1]),
        "total_norm_final": float(total[-1]),
        "spectral_argmax_k": float(kgrid.k_values[np.argmax(np.abs(pair.cegk[-1]))]),
    }
    if plot:
        from . import plots
        plots.cascade_plots(out, cee, pair, ckk)
    return summary


def _run_cee_only(config: NetworkConfig, s: RunSettings, out: Path,
                  plot: bool) -> dict:
    cee = solve_cee(config, s.t_end, s.dt)
    markov = analytic_cee_markov(cee.times, config)
    sq = _write_cee_csv(out, cee, markov)
    summary = {
        "t_final": cee.t_end,
        "cee_abs2_final": float(sq[-1]),
        "cee_abs2_min": float(sq.min()),
        "markov_max_diff": float(np.abs(cee.states[:, 0] - markov).max()),
    }
    if plot:
        from . import plots
        plots.cee_plot(out, cee, markov)
    return summary


def _run_spatial(config: NetworkConfig, s: RunSettings, out: Path,
                 plot: bool) -> dict:
    if len(config.atoms) == 1:
        traj = solve_single_atom(config.atoms[0], config.omega_a, s.t_end, s.dt)
        names = ["c1"]
    else:
        traj = solve_two_atom_single_excitation(config, s.t_end, s.dt)
        names = ["c1", "c2"]
    header, cols = ["t"], [traj.times]
    for j, nm in enumerate(names):
        header += [nm, f"{nm}_abs2"]
        cols += [traj.states[:, j], np.abs(traj.states[:, j]) ** 2]
    write_csv(out / "amplitudes.csv", header, cols)

    # the last checkpoint is t_end, whose snapshot field_snapshot.csv shows
    snaps = [field_snapshot(config, traj, t)
             for t in _checkpoint_times(traj.t_end)]
    snap = snaps[-1]
    write_csv(out / "field_snapshot.csv",
              ["z", "phi_r", "phi_r_abs2", "phi_l", "phi_l_abs2"],
              [snap.z_values, snap.phi_r, np.abs(snap.phi_r) ** 2,
               snap.phi_l, np.abs(snap.phi_l) ** 2])

    rows = [(sn.t, single_excitation_norm(sn, traj), check_mirror_boundary(sn))
            for sn in snaps]
    arr = np.array(rows)
    write_csv(out / "norm.csv", ["t", "total_norm", "mirror_residual"],
              [arr[:, 0], arr[:, 1], arr[:, 2]])

    summary = {
        "t_final": traj.t_end,
        "c1_abs2_final": float(np.abs(traj.states[-1, 0]) ** 2),
        "mirror_residual_max": float(arr[:, 2].max()),
        "total_norm_final": float(arr[-1, 1]),
        "norm_drift_max": float(np.abs(arr[:, 1] - 1.0).max()),
    }
    if len(config.atoms) == 2:
        summary["c2_abs2_final"] = float(np.abs(traj.states[-1, 1]) ** 2)
        summary["c2_abs2_max"] = float((np.abs(traj.states[:, 1]) ** 2).max())
    if plot:
        from . import plots
        plots.spatial_plots(out, traj, snap, names)
    return summary


# solver pipelines by kind: `run_pipeline`'s dispatch and the CLI's --mode
PIPELINES = {"cascade": _run_cascade, "cee": _run_cee_only,
             "spatial": _run_spatial}
