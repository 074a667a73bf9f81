"""Two-photon (stimulated Raman) transitions between hyperfine ground states.

A pair of far-detuned beams couples the two ground states ``g`` and ``e``
through a common intermediate level ``i``.  This module provides

* kinematic single- and two-photon detunings, including Doppler and photon
  recoil terms, for an atom of momentum ``p`` along the beam axis;
* adiabatic elimination of the intermediate level, yielding an effective
  two-level drive (Rabi rate, light shifts, effective phase);
* an exact effective-pulse propagator that reuses the closed-form two-level
  machinery of :mod:`gravsim.twolevel`;
* an independent fixed-step RK4 integration of the full three-level amplitude
  equations, used as the reference oracle.

Momentum bookkeeping: a ``g g e`` transition transfers the two-photon recoil
``hbar * k_eff``; effective states carry explicit momentum labels
``(p_g, p_e = p_g + hbar k_eff)`` which pulses never mix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DEFAULT_K_EFF, HBAR, ThreeLevelState, _check_norm
from .errors import EliminationError
from .twolevel import _propagator_rows, _rk4_lab_frame, mach_zehnder_probability

__all__ = [
    "LaserPair",
    "RamanDetunings",
    "EffectiveParams",
    "RamanState",
    "detunings",
    "two_photon_detuning",
    "effective_params",
    "effective_params_from_detunings",
    "pi_pulse_duration",
    "raman_pulse",
    "raman_sequence_probability",
    "three_level_ode_oracle",
]

#: Relative imaginary part above which light shifts are rejected as unusable.
_AC_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class LaserPair:
    """The two beams driving a Raman transition.

    Attributes
    ----------
    k1, k2 : float
        Signed wavenumbers along the propagation axis [rad/m].  For
        counter-propagating beams ``k1`` and ``k2`` have opposite signs and
        ``|k_eff| = |k1 - k2| ~ 2 |k1|``.
    omega1, omega2 : float
        Optical angular frequencies [rad/s]; beam 1 couples ``g -- i``,
        beam 2 couples ``e -- i``.
    phi1, phi2 : float
        Beam phases at t = 0 [rad].
    rabi_gi, rabi_ei : complex
        Single-photon Rabi rates of the ``g -- i`` and ``e -- i`` couplings
        [rad/s].
    """

    k1: float
    k2: float
    omega1: float
    omega2: float
    phi1: float = 0.0
    phi2: float = 0.0
    rabi_gi: complex = 0.0j
    rabi_ei: complex = 0.0j

    @property
    def k_eff(self) -> float:
        """Two-photon effective wavenumber k1 - k2 [rad/m]."""
        return self.k1 - self.k2


@dataclass(frozen=True)
class RamanDetunings:
    """Single- and two-photon detunings seen by one momentum class.

    All three are finite, and ``delta_two_photon`` must equal ``delta1 -
    delta2``; the constructor enforces both.  That redundant field stays
    only because the benchmark harness (``perfbench/``) constructs the
    record with it, and goes when that harness is next revised (ROADMAP
    items 1 and 23).
    """

    delta1: float
    delta2: float
    delta_two_photon: float

    def __post_init__(self) -> None:
        expected = self.delta1 - self.delta2
        scale = max(1.0, abs(self.delta1), abs(self.delta2))
        # One positive chain, so that NaN fails it: a NaN field makes the
        # difference NaN, an infinite delta1 or delta2 the scale, and an
        # infinite delta_two_photon the difference infinite.
        if not abs(self.delta_two_photon - expected) <= 1e-9 * scale < math.inf:
            raise ValueError(
                f"need finite detunings with delta_two_photon = delta1 - delta2, "
                f"got delta_two_photon={self.delta_two_photon} and "
                f"delta1 - delta2 = {expected}"
            )


@dataclass(frozen=True)
class EffectiveParams:
    """Parameters of the eliminated two-level problem.

    Attributes
    ----------
    omega_eff : complex
        Two-photon Rabi rate ``rabi_gi * conj(rabi_ei) / (4 Delta)`` [rad/s].
        The equivalent two-level drive has Rabi modulus ``2 |omega_eff|``
        (see :func:`raman_pulse`); a resonant pi pulse therefore lasts
        ``pi / (2 |omega_eff|)``.
    ac_g, ac_e : complex
        Light shifts of the two ground states [rad/s]; :func:`raman_pulse`
        accepts only (numerically) real values.
    phi_eff : float
        Effective drive phase ``phi2 - phi1`` [rad] (the argument of
        ``omega_eff`` contributes on top, exactly as a complex single-photon
        Rabi rate would).
    """

    omega_eff: complex
    ac_g: complex
    ac_e: complex
    phi_eff: float

    @property
    def delta_ac(self) -> complex:
        """Differential light shift ``ac_e - ac_g`` [rad/s]."""
        return self.ac_e - self.ac_g


@dataclass(frozen=True)
class RamanState:
    """Effective two-level state with momentum labels.

    Attributes
    ----------
    c_g, c_e : complex
        Amplitudes of the lower and upper ground states.
    p_g, p_e : float
        Momentum labels of the two components [kg*m/s]; a two-photon
        transition always connects ``(g, p_g)`` to ``(e, p_e = p_g +
        hbar k_eff)``, so the labels are constants of the motion.
    """

    c_g: complex
    c_e: complex
    p_g: float
    p_e: float

    def __post_init__(self) -> None:
        _check_norm(abs(self.c_g) ** 2 + abs(self.c_e) ** 2, "|c_g|^2 + |c_e|^2")

    @classmethod
    def from_ground(cls, p: float = 0.0, k_eff: float = DEFAULT_K_EFF) -> "RamanState":
        """All population in ``g`` at momentum ``p``; the coupled ``e``
        component sits at ``p + hbar k_eff``."""
        return cls(c_g=1.0 + 0.0j, c_e=0.0j, p_g=p, p_e=p + HBAR * k_eff)

    @property
    def momentum_transfer(self) -> float:
        """Recoil separating the two components, ``p_e - p_g`` [kg*m/s]."""
        return self.p_e - self.p_g


def detunings(
    lasers: LaserPair,
    p: float,
    atom_mass: float,
    omega_ig: float,
    omega_ie: float,
) -> RamanDetunings:
    """Detunings of the two optical couplings for momentum class ``p``.

    Beam 1 drives ``(g, p) -> (i, p + hbar k1)`` and beam 2 drives
    ``(e, p + hbar k_eff) -> (i, p + hbar k1)``; each detuning is the laser
    frequency minus the internal transition frequency minus the kinetic
    energy change (Doppler plus recoil):

        delta1 = omega1 - omega_ig + [p^2 - (p + hbar k1)^2] / (2 m hbar)
        delta2 = omega2 - omega_ie
                 + [(p + hbar k_eff)^2 - (p + hbar k1)^2] / (2 m hbar)

    Parameters
    ----------
    lasers : LaserPair
        Beam parameters.
    p : float
        Momentum of the ``g`` component along the beam axis [kg*m/s].
    atom_mass : float
        Atomic mass [kg].
    omega_ig, omega_ie : float
        Internal transition frequencies ``i - g`` and ``i - e`` [rad/s].

    Returns
    -------
    RamanDetunings
        ``delta1``, ``delta2`` and their difference (the two-photon
        detuning).
    """
    p_i = p + HBAR * lasers.k1
    p_e = p + HBAR * lasers.k_eff
    delta1 = lasers.omega1 - omega_ig + (p * p - p_i * p_i) / (2.0 * atom_mass * HBAR)
    delta2 = (
        lasers.omega2
        - omega_ie
        + (p_e * p_e - p_i * p_i) / (2.0 * atom_mass * HBAR)
    )
    return RamanDetunings(
        delta1=delta1, delta2=delta2, delta_two_photon=delta1 - delta2
    )


def two_photon_detuning(
    lasers: LaserPair,
    p: float,
    atom_mass: float,
    omega_split: float,
) -> float:
    """Closed form of the two-photon detuning ``delta1 - delta2``.

    With ``omega_split = omega_ig - omega_ie`` the hyperfine splitting, the
    single-photon terms collapse to::

        delta = omega1 - omega2 - omega_split
                - p k_eff / m - hbar k_eff^2 / (2 m)

    i.e. laser difference frequency minus splitting, Doppler shift, and
    two-photon recoil.  At ``p = -hbar k_eff / 2`` the Doppler and recoil
    terms cancel exactly.
    """
    k = lasers.k_eff
    return (
        lasers.omega1
        - lasers.omega2
        - omega_split
        - p * k / atom_mass
        - HBAR * k * k / (2.0 * atom_mass)
    )


def effective_params(lasers: LaserPair, big_delta: float) -> EffectiveParams:
    """Adiabatic elimination of the intermediate level.

    For single-photon detunings both close to ``big_delta`` (and much larger
    than the couplings), the intermediate amplitude follows the ground-state
    amplitudes and the dynamics reduces to a driven two-level problem with

    * two-photon Rabi rate  ``omega_eff = rabi_gi conj(rabi_ei) / (4 big_delta)``,
    * real light shifts ``ac_g = |rabi_gi|^2 / (4 big_delta)`` and
      ``ac_e = |rabi_ei|^2 / (4 big_delta)`` of the two ground states,
    * differential shift ``delta_ac = ac_e - ac_g`` displacing the two-photon
      resonance,
    * effective drive phase ``phi_eff = phi2 - phi1``.

    Parameters
    ----------
    lasers : LaserPair
        Beam parameters (couplings and phases).
    big_delta : float
        Common single-photon detuning [rad/s]; must be nonzero.

    Raises
    ------
    EliminationError
        If ``big_delta`` is zero.
    """
    if big_delta == 0.0:
        raise EliminationError("adiabatic elimination needs a nonzero detuning")
    omega_eff = lasers.rabi_gi * lasers.rabi_ei.conjugate() / (4.0 * big_delta)
    ac_g = abs(lasers.rabi_gi) ** 2 / (4.0 * big_delta)
    ac_e = abs(lasers.rabi_ei) ** 2 / (4.0 * big_delta)
    return EffectiveParams(
        omega_eff=omega_eff,
        ac_g=ac_g,
        ac_e=ac_e,
        phi_eff=lasers.phi2 - lasers.phi1,
    )


def effective_params_from_detunings(
    lasers: LaserPair, dets: RamanDetunings
) -> EffectiveParams:
    """Eliminate using the mean single-photon detuning
    ``(delta1 + delta2)/2``."""
    return effective_params(lasers, 0.5 * (dets.delta1 + dets.delta2))


def pi_pulse_duration(params: EffectiveParams) -> float:
    """Duration of a resonant two-photon pi pulse, ``pi / (2 |omega_eff|)``."""
    mod = abs(params.omega_eff)
    if mod == 0.0:
        raise EliminationError("omega_eff is zero; no pulse duration exists")
    return math.pi / (2.0 * mod)


def _real_shift(value: complex, name: str) -> float:
    """Check a light shift is (numerically) real and return its real part."""
    scale = max(1.0, abs(value))
    if abs(value.imag) > _AC_IMAG_TOL * scale:
        raise EliminationError(
            f"{name} = {value!r} has a non-negligible imaginary part; "
            "complex light shifts cannot drive unitary dynamics"
        )
    return value.real


def raman_pulse(
    state: RamanState,
    params: EffectiveParams,
    delta: float,
    t0: float,
    duration: float,
) -> RamanState:
    """Apply one square two-photon pulse to an effective two-level state.

    The evolution is the exact closed-form propagator of the eliminated
    problem: on the amplitude vector ``(c_e, c_g)`` it is the two-level
    propagator with

    * Rabi modulus ``2 |omega_eff|``,
    * drive phase ``phi_eff - arg(omega_eff)``,
    * rotating-frame frequency ``delta`` (the two-photon detuning),
    * rotation-axis detuning ``delta - delta_ac`` (the light shifts displace
      the resonance),
    * global phase ``exp(-i (ac_e + ac_g) duration / 2)`` from the mean
      light shift.

    Momentum labels pass through unchanged.  A phase of the closed form
    that overflows raises ``ValueError`` (see
    :func:`gravsim.twolevel.propagator_matrix`).
    """
    ac_g = _real_shift(complex(params.ac_g), "ac_g")
    ac_e = _real_shift(complex(params.ac_e), "ac_e")
    omega_mod = 2.0 * abs(params.omega_eff)
    phase = params.phi_eff - cmath.phase(params.omega_eff) if omega_mod else params.phi_eff
    (u_ee, u_eg), (u_ge, u_gg) = _propagator_rows(
        omega_mod, phase, t0, duration, delta,
        rot_delta=delta - (ac_e - ac_g), mean_shift=0.5 * (ac_e + ac_g))
    return RamanState(c_g=u_ge * state.c_e + u_gg * state.c_g,
                      c_e=u_ee * state.c_e + u_eg * state.c_g,
                      p_g=state.p_g, p_e=state.p_e)


#: Exit fringe of a two-photon pi/2 -- pi -- pi/2 sequence: identical, by
#: construction, to the bare two-level closed form.
raman_sequence_probability = mach_zehnder_probability


def three_level_ode_oracle(
    state: ThreeLevelState,
    lasers: LaserPair,
    dets: RamanDetunings,
    duration: float,
    dt: float,
    t0: float = 0.0,
) -> ThreeLevelState:
    """Integrate the full three-level amplitude equations (reference path).

    Fixed-step RK4 on::

        dC_g/dt = -(i/2) conj(rabi_gi) e^{+i(delta1 t - phi1)} C_i
        dC_e/dt = -(i/2) conj(rabi_ei) e^{+i(delta2 t - phi2)} C_i
        dC_i/dt = -(i/2) [rabi_gi e^{-i(delta1 t - phi1)} C_g
                           + rabi_ei e^{-i(delta2 t - phi2)} C_e]

    in the lab frame, through the RK4 step map it shares with the two-level
    oracle (:func:`gravsim.twolevel._rk4_lab_frame`, ``nu = (delta1, 0,
    delta2)``).  This keeps it independent of the closed-form effective-model path: no
    adiabatic elimination, closed form, eigendecomposition or matrix
    exponential enters.  The kinetic (Doppler/recoil) physics lives inside
    ``dets``; the momentum label of ``state`` passes through unchanged.

    Parameters
    ----------
    state : ThreeLevelState
        Initial amplitudes.
    lasers : LaserPair
        Couplings and phases.
    dets : RamanDetunings
        Single-photon detunings for this momentum class (build with
        :func:`detunings`).
    duration : float
        Integration span [s]; must be finite and positive.
    dt : float
        Requested step [s]; must resolve the fastest of ``|delta1|``,
        ``|delta2|`` and the coupling moduli by at least a factor of 100.
    t0 : float, optional
        Start time [s].

    Raises
    ------
    TimeOrderError
        If ``duration`` is not finite and positive.
    StepSizeError
        If ``dt`` is not positive or too coarse, ``duration`` needs more
        than ``_MAX_ORACLE_STEPS`` (10,000,000) steps of it, or the
        couplings overflow the RK4 step map.
    """
    fastest = max(
        abs(dets.delta1), abs(dets.delta2), abs(lasers.rabi_gi), abs(lasers.rabi_ei)
    )
    g = -0.5j * complex(lasers.rabi_gi).conjugate() * cmath.exp(-1j * lasers.phi1)
    e = -0.5j * complex(lasers.rabi_ei).conjugate() * cmath.exp(-1j * lasers.phi2)
    c_g, c_i, c_e = _rk4_lab_frame(
        [[0.0, g, 0.0], [-g.conjugate(), 0.0, -e.conjugate()], [0.0, e, 0.0]],
        [dets.delta1, 0.0, dets.delta2],
        [state.c_g, state.c_i, state.c_e],
        t0,
        duration,
        dt,
        fastest,
    )
    return ThreeLevelState(c_g=c_g, c_i=c_i, c_e=c_e, p=state.p)
