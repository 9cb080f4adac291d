"""wqsim: coherent-feedback dynamics of atoms coupled to a mirror-terminated
waveguide, in the frequency (mode) and spatial (wave-packet) pictures."""
import os as _os


def _thread_count(raw: str | None) -> int | None:
    """WQSIM_THREADS as a positive integer, None when unset or empty;
    ValueError for anything else, so every run refuses it at import."""
    raw = (raw or "").strip()
    if raw and not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"WQSIM_THREADS must be a positive integer, got {raw!r}")
    return int(raw) if raw else None


# WQSIM_THREADS is the width of the cascade's mode-tile pool
# (`frequency._tile_pool`, which holds BLAS to one thread inside it); here,
# before numpy loads, it also caps the BLAS/OpenMP pools of everything else.
_THREADS = _thread_count(_os.environ.get("WQSIM_THREADS"))
if _THREADS:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_THREADS))

__version__ = "0.1.0"

from .errors import (InvalidCoupling, InvalidFrequency, InvalidGeometry,
                     InvalidGrid, MissingOrigin, NonFiniteState,
                     OutOfRange, OutsideMarkovRegimeWarning, ParseError,
                     StepTooLarge, UnknownPreset, WqsimError)
from .model import (AtomParams, KGrid, NetworkConfig, coupling_g,
                    validate_config)
from .dde import DelaySystem, Trajectory, integrate
from .frequency import (OracleResult, SpectralPairResult, SteadyStateClass,
                        SteadyStateLabel, TwoExcitationState,
                        analytic_cee_markov, classify_steady_state,
                        oracle_full_grid, populations, solve_cee,
                        solve_spectral_pair, solve_two_photon,
                        stream_two_photon, total_norm, two_photon_norm)
from .spatial import (FieldSnapshot, check_mirror_boundary, field_snapshot,
                      single_excitation_norm, solve_single_atom,
                      solve_two_atom_single_excitation)
from .presets import PRESETS, Preset, get_preset, run_pipeline, run_preset
from .runio import (RunSettings, format_config, parse_config_file,
                    parse_config_text, write_csv, write_manifest)
from .verify import VerificationCheck, VerificationReport, verify

__all__ = [name for name in dir() if not name.startswith("_")]
