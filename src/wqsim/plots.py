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


def _figure(path: Path, xlabel: str, ylabel: str, curves,
            title: str | None = None) -> Path:
    """One line figure: each curve is `ax.plot`'s positional arguments
    followed by its legend label."""
    plt = _pyplot()
    fig, ax = plt.subplots(figsize=(6, 4))
    for *args, label in curves:
        ax.plot(*args, label=label)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    if title is not None:
        ax.set_title(title)
    ax.legend()
    fig.savefig(path)
    plt.close(fig)
    return path


def cee_plot(out: Path, cee, markov) -> Path:
    return _figure(out / "cee.svg", "t", "population", [
        (cee.times, np.abs(cee.states[:, 0]) ** 2, "|c_ee|^2"),
        (cee.times, np.abs(markov) ** 2, "--", "short-delay form")])


def cascade_plots(out: Path, cee, pair, ckk) -> list[Path]:
    times, p1, p2 = pair.populations_series()
    k = pair.kgrid.k_values
    paths = [
        _figure(out / "populations.svg", "t", "population", [
            (times, p1, "P_e1"), (times, p2, "P_e2"),
            (cee.times, np.abs(cee.states[:, 0]) ** 2, "|c_ee|^2")]),
        _figure(out / "spectra.svg", "k", "amplitude", [
            (k, np.abs(pair.cegk[-1]), "|c_egk(T)|"),
            (k, np.abs(pair.cgek[-1]), "|c_gek(T)|")])]

    plt = _pyplot()
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
    z = snap.z_values
    return [
        _figure(out / "amplitudes.svg", "t", "population", [
            (traj.times, np.abs(traj.states[:, j]) ** 2, f"|{nm}|^2")
            for j, nm in enumerate(names)]),
        _figure(out / "field_snapshot.svg", "z", "field density", [
            (z, np.abs(snap.phi_r) ** 2, "|phi_r|^2"),
            (z, np.abs(snap.phi_l) ** 2, "|phi_l|^2")],
            title=f"t = {snap.t:g}")]
