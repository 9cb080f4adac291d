"""Optional SVG rendering of run products (requires matplotlib)."""
from __future__ import annotations

from pathlib import Path

import numpy as np


def _pyplot():
    try:
        import matplotlib
        matplotlib.use("Agg", force=True)
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - env dependent
        raise RuntimeError(
            "plotting requires matplotlib; install the 'plot' extra"
        ) from exc
    return plt


def cee_plot(out: Path, cee, markov) -> Path:
    plt = _pyplot()
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(cee.times, np.abs(cee.states[:, 0]) ** 2, label="|c_ee|^2")
    ax.plot(cee.times, np.abs(markov) ** 2, "--", label="short-delay form")
    ax.set_xlabel("t")
    ax.set_ylabel("population")
    ax.legend()
    path = out / "cee.svg"
    fig.savefig(path)
    plt.close(fig)
    return path


def cascade_plots(out: Path, cee, pair, ckk) -> list[Path]:
    plt = _pyplot()
    paths = []

    times, p1, p2 = pair.populations_series()
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(times, p1, label="P_e1")
    ax.plot(times, p2, label="P_e2")
    ax.plot(cee.times, np.abs(cee.states[:, 0]) ** 2, label="|c_ee|^2")
    ax.set_xlabel("t")
    ax.set_ylabel("population")
    ax.legend()
    paths.append(out / "populations.svg")
    fig.savefig(paths[-1])
    plt.close(fig)

    fig, ax = plt.subplots(figsize=(6, 4))
    k = pair.kgrid.k_values
    ax.plot(k, np.abs(pair.cegk[-1]), label="|c_egk(T)|")
    ax.plot(k, np.abs(pair.cgek[-1]), label="|c_gek(T)|")
    ax.set_xlabel("k")
    ax.set_ylabel("amplitude")
    ax.legend()
    paths.append(out / "spectra.svg")
    fig.savefig(paths[-1])
    plt.close(fig)

    fig, ax = plt.subplots(figsize=(5, 4))
    m = ax.imshow(np.abs(ckk), origin="lower",
                  extent=(k[0], k[-1], k[0], k[-1]), aspect="auto")
    fig.colorbar(m, ax=ax, label="|c_kk(T)|")
    ax.set_xlabel("k2")
    ax.set_ylabel("k1")
    paths.append(out / "two_photon.svg")
    fig.savefig(paths[-1])
    plt.close(fig)
    return paths


def spatial_plots(out: Path, traj, snap, names) -> list[Path]:
    plt = _pyplot()
    paths = []
    fig, ax = plt.subplots(figsize=(6, 4))
    for j, nm in enumerate(names):
        ax.plot(traj.times, np.abs(traj.states[:, j]) ** 2, label=f"|{nm}|^2")
    ax.set_xlabel("t")
    ax.set_ylabel("population")
    ax.legend()
    paths.append(out / "amplitudes.svg")
    fig.savefig(paths[-1])
    plt.close(fig)

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(snap.z_values, np.abs(snap.phi_r) ** 2, label="|phi_r|^2")
    ax.plot(snap.z_values, np.abs(snap.phi_l) ** 2, label="|phi_l|^2")
    ax.set_xlabel("z")
    ax.set_ylabel("field density")
    ax.set_title(f"t = {snap.t:g}")
    ax.legend()
    paths.append(out / "field_snapshot.svg")
    fig.savefig(paths[-1])
    plt.close(fig)
    return paths
