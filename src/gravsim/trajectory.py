"""Classical free-fall trajectories and interferometer phase bookkeeping.

The interferometer geometry is the standard Mach-Zehnder diamond: a first
beam-splitter pulse at t = 0 splits the atom at vertex A, the deflected arm
climbs with an extra recoil velocity ``hbar k_eff / m``, a mirror pulse at
t = T swaps the arm velocities (vertices C upper, D lower), and a final
beam-splitter at t = 2T recombines them at vertex B.  Under uniform gravity
both arms land on the same closure point.

Phase contributions:

* path (propagation) phase -- difference of classical actions along the two
  arms divided by hbar; it vanishes identically on the closed diamond;
* laser phase -- the pulse phases imprinted at the vertices,
  ``k_eff z + phi`` with alternating signs, which is where the gravity signal
  ``k_eff g T^2`` actually enters;
* chirp phase -- sweeping the beam difference frequency at rate ``beta``
  cancels the gravity term at ``beta = k_eff g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_G, DEFAULT_K_EFF, HBAR, RB87_MASS
from .errors import TimeOrderError

__all__ = [
    "FreeFallTrajectory",
    "TrajectoryVertices",
    "boundary_velocity",
    "classical_action",
    "action_quadrature_oracle",
    "build_vertices",
    "path_phase",
    "laser_phase_sum",
    "total_phase",
    "chirped_phase",
]


@dataclass(frozen=True)
class FreeFallTrajectory:
    """Vertical free-fall path fixed by one initial condition.

    Attributes
    ----------
    z1, v1, t1 : float
        Position [m] and velocity [m/s] at time ``t1`` [s].
    g : float
        Downward gravitational acceleration [m/s^2].
    """

    z1: float
    v1: float
    t1: float
    g: float = DEFAULT_G

    def position(self, t: float) -> float:
        """Height z1 + v1 (t - t1) - g (t - t1)^2 / 2 [m]."""
        dt = t - self.t1
        return self.z1 + self.v1 * dt - 0.5 * self.g * dt * dt

    def velocity(self, t: float) -> float:
        """Velocity v1 - g (t - t1) [m/s]."""
        return self.v1 - self.g * (t - self.t1)


@dataclass(frozen=True)
class TrajectoryVertices:
    """Arm heights at the four pulse vertices of one diamond.

    ``z_a`` is the common start, ``z_c``/``z_d`` the upper/lower arm at the
    mirror pulse, ``z_b`` the recombination point.  The gravity-free
    diamond, which isolates the gravity-induced sag, is
    ``build_vertices(..., g=0.0)``.
    """

    z_a: float
    z_b: float
    z_c: float
    z_d: float


def _check_big_t(big_t: float) -> None:
    """Refuse a dark interval ``big_t`` that is not finite and positive, or
    whose square, the fringe scale ``T^2``, overflows or underflows."""
    if not 0.0 < big_t < math.inf:
        raise TimeOrderError(f"need finite big_t > 0, got {big_t}")
    if not 0.0 < big_t * big_t < math.inf:
        raise TimeOrderError(f"need big_t**2 finite and nonzero, got big_t = {big_t}")


def _check_times(t1: float, t2: float) -> None:
    """Refuse endpoint times that are not finite with ``t1 < t2``."""
    if not -math.inf < t1 < t2 < math.inf:
        raise TimeOrderError(f"need finite t2 > t1, got t1={t1}, t2={t2}")


def boundary_velocity(z1: float, t1: float, z2: float, t2: float, g: float) -> float:
    """Initial velocity of the free-fall path through (t1, z1) and (t2, z2).

    v1 = (z2 - z1)/(t2 - t1) + g (t2 - t1)/2.
    """
    _check_times(t1, t2)
    dt = t2 - t1
    return (z2 - z1) / dt + 0.5 * g * dt


def classical_action(
    z1: float,
    t1: float,
    z2: float,
    t2: float,
    mass: float = RB87_MASS,
    g: float = DEFAULT_G,
) -> float:
    """Action of the free-fall path between two fixed endpoints, closed form.

    Integrating the Lagrangian m v^2/2 - m g z along the unique trajectory
    through (t1, z1) and (t2, z2) gives::

        S = m (z2 - z1)^2 / (2 dt) - m g dt (z2 + z1) / 2 - m g^2 dt^3 / 24

    with dt = t2 - t1.

    Returns
    -------
    float
        Action [J*s].

    Raises
    ------
    TimeOrderError
        If ``t2 > t1`` fails or either time is not finite.
    """
    _check_times(t1, t2)
    dt = t2 - t1
    dz = z2 - z1
    return (
        mass * dz * dz / (2.0 * dt)
        - mass * g * dt * (z2 + z1) / 2.0
        - mass * g * g * dt**3 / 24.0
    )


def action_quadrature_oracle(
    z1: float,
    t1: float,
    z2: float,
    t2: float,
    mass: float = RB87_MASS,
    g: float = DEFAULT_G,
    n_steps: int = 1000,
) -> float:
    """Action between fixed endpoints by composite-Simpson quadrature.

    Reference path for :func:`classical_action`: reconstruct the
    boundary-matched :class:`FreeFallTrajectory`, sample the Lagrangian
    m v^2/2 - m g z on a uniform grid, and integrate with Simpson's rule.
    (The integrand is a quadratic polynomial in t, which Simpson integrates
    exactly, so any remaining discrepancy is pure roundoff.)

    Parameters
    ----------
    n_steps : int, optional
        Number of grid intervals (rounded up to even).
    """
    _check_times(t1, t2)
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    n = n_steps + (n_steps % 2)
    path = FreeFallTrajectory(z1, boundary_velocity(z1, t1, z2, t2, g), t1, g)
    t = np.linspace(t1, t2, n + 1)
    v = path.velocity(t)
    lagrangian = 0.5 * mass * v * v - mass * g * path.position(t)
    # Composite Simpson 1/3 rule on the uniform grid of n (even) intervals.
    h = (t2 - t1) / n
    return float(
        h / 3.0 * (lagrangian[0] + lagrangian[-1]
                   + 4.0 * lagrangian[1:-1:2].sum() + 2.0 * lagrangian[2:-1:2].sum())
    )


def build_vertices(
    z0: float,
    v0: float,
    big_t: float,
    k_eff: float = DEFAULT_K_EFF,
    mass: float = RB87_MASS,
    g: float = DEFAULT_G,
    hbar: float = HBAR,
) -> TrajectoryVertices:
    """Vertex heights of the Mach-Zehnder diamond (thin-pulse limit).

    The deflected arm leaves the first splitter with the extra two-photon
    recoil velocity ``v_r = hbar k_eff / mass``; the mirror pulse at t = T
    exchanges the arm velocities, so both arms meet again at t = 2T.
    Gravity lowers the mirror-pulse vertices by ``g T^2 / 2`` and the
    recombination vertex by ``2 g T^2``; ``g=0.0`` gives the gravity-free
    diamond of the same (z0, v0).

    ``hbar`` defaults to :data:`gravsim.core.HBAR`, the value every other
    module uses; it stays a parameter only because the benchmark harness
    passes it positionally, and goes when that harness is next revised
    (ROADMAP item 1).

    Raises
    ------
    TimeOrderError
        If ``big_t`` is not finite and positive.
    """
    _check_big_t(big_t)
    v_r = hbar * k_eff / mass
    sag = 0.5 * g * big_t * big_t
    return TrajectoryVertices(
        z_a=z0,
        z_b=z0 + (2.0 * v0 + v_r) * big_t - 4.0 * sag,
        z_c=z0 + (v0 + v_r) * big_t - sag,
        z_d=z0 + v0 * big_t - sag,
    )


def path_phase(
    vertices: TrajectoryVertices,
    big_t: float,
    mass: float = RB87_MASS,
    g: float = DEFAULT_G,
    hbar: float = HBAR,
) -> float:
    """Propagation-phase difference between the two arms [rad].

    Summing the closed-form actions over the four segments of the diamond
    and dividing by hbar collapses to::

        (mass / (big_t * hbar)) (z_c - z_d)
            * [z_c + z_d - z_a - z_b - g big_t^2]

    which vanishes identically when the vertices belong to a consistent
    uniform-gravity diamond (the bracket is the closure identity).  The
    formula is kept in this factored form so that perturbed vertices report
    their first-order phase sensitivity.  ``hbar`` stays a parameter for the
    reason given in :func:`build_vertices`.
    """
    _check_big_t(big_t)
    closure = (
        vertices.z_c + vertices.z_d - vertices.z_a - vertices.z_b - g * big_t * big_t
    )
    return (mass / (big_t * hbar)) * (vertices.z_c - vertices.z_d) * closure


def laser_phase_sum(
    vertices: TrajectoryVertices,
    phases: tuple[float, float, float],
    k_eff: float = DEFAULT_K_EFF,
) -> float:
    """Laser phase imprinted on the interference signal [rad].

    The three pulses stamp ``+/- (k_eff z + phi)`` at the vertices they
    touch; the surviving combination is::

        k_eff (z_c - z_b - z_a + z_d) + phi_1 - 2 phi_2 + phi_3

    For a consistent diamond this equals ``k_eff g T^2 + dphi_laser``: the
    gravity signal lives entirely in the laser phase.
    """
    p1, p2, p3 = phases
    return (
        k_eff * (vertices.z_c - vertices.z_b - vertices.z_a + vertices.z_d)
        + p1
        - 2.0 * p2
        + p3
    )


def total_phase(
    big_t: float,
    k_eff: float = DEFAULT_K_EFF,
    g: float = DEFAULT_G,
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> float:
    """Total interferometer phase ``+k_eff g T^2 + dphi_laser`` [rad].

    Path and laser contributions combined for the closed diamond; the path
    part is identically zero, so only the laser sum survives.  Gravity
    enters with a plus sign here and with a minus sign in
    :func:`chirped_phase`: the two add to ``beta T^2 + 2 dphi_laser``.
    """
    _check_big_t(big_t)
    p1, p2, p3 = phases
    return k_eff * g * big_t * big_t + p1 - 2.0 * p2 + p3


def chirped_phase(
    beta: np.ndarray | float,
    k_eff: float = DEFAULT_K_EFF,
    g: float = DEFAULT_G,
    big_t: float = 0.1,
    dphi_laser: float = 0.0,
) -> np.ndarray | float:
    """Interferometer phase with a frequency chirp ``beta`` applied [rad]::

        (beta - k_eff g) T^2 + dphi_laser

    Gravity enters with a minus sign, the opposite of :func:`total_phase`
    (``+k_eff g T^2 + dphi_laser``), so this is not ``total_phase`` plus
    ``beta T^2``: the two add to ``beta T^2 + 2 dphi_laser``, and their
    fringes agree only when ``dphi_laser`` is a multiple of pi.

    Sweeping the beam difference frequency at rate ``beta`` [rad/s^2]
    nulls the fringe (up to ``dphi_laser``) at ``beta = k_eff g``, which is
    the chirp-null condition used to read out g.  An array of chirp rates
    gives the phases elementwise.
    """
    _check_big_t(big_t)
    return (beta - k_eff * g) * big_t * big_t + dphi_laser
