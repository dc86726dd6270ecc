"""Convex change of variables for relative-feedback synthesis.

Given an extended plant whose measured output is the full state, a nominal
stable relative controller that stabilizes it yields three fixed systems
T1, T2, T3 such that every achievable disturbance-to-performance map is
T1 + T2 Q T3 with Q a free stable parameter, and the controller behind a
given Q is recovered through a pair of feedback transforms.  Annihilation
of the component indicator vectors transfers exactly between the state
feedback and the free parameter, which is what makes the relative
measurement constraint convex in Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NominalNotRelativeError,
    NominalNotStabilizingError,
    NominalUnstableError,
)
from .lti import (
    FirSystem,
    Matrix,
    Plant,
    StateSpace,
    as_statespace,
    close_loop,
    drop_invariant_subspace,
    is_internally_stable,
    lft,
    markov,
    subtract,
)
from .measurement import MeasurementStructure

#: Entry tolerance for indicator-annihilation checks.
E_CONSTRAINT_TOL = 1e-10


def build_tilde_plant(p: Plant) -> Plant:
    """Replace the measured output y = C2 x by the full state x."""
    return Plant(
        A=p.A, B1=p.B1, B2=p.B2, C1=p.C1, D12=p.D12, C2=np.eye(p.n_states)
    )


def laplacian_rnom(adjacency) -> StateSpace:
    """Static nominal controller -(1/n) L from a graph Laplacian.

    L is the degree matrix minus the adjacency; the row sums of the result
    vanish, so the gain is a relative map on any component.
    """
    A = np.atleast_2d(np.asarray(adjacency, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or np.any(A != A.T) or np.any(np.diag(A) != 0):
        raise DomainError("adjacency must be symmetric with zero diagonal")
    L = np.diag(A.sum(axis=1)) - A
    return StateSpace.static_gain(-L / n)


def check_e_constraint(sys, indicators, tol: float = E_CONSTRAINT_TOL) -> bool:
    """True iff the system annihilates every indicator vector.

    For an FIR map every tap is tested directly.  For a state-space map the
    realization-level test B E = 0 (with D E = 0) is conclusive when it
    passes; otherwise the Markov parameters up to twice the state dimension
    are tested, which suffices by Cayley-Hamilton.
    """
    E = np.atleast_2d(np.asarray(indicators, dtype=float)).T  # columns
    if isinstance(sys, FirSystem):
        if sys.n_inputs != E.shape[0]:
            raise DimensionError("indicator length does not match input count")
        return bool(np.abs(sys.taps @ E).max() <= tol)
    ss = as_statespace(sys)
    if ss.n_inputs != E.shape[0]:
        raise DimensionError("indicator length does not match input count")
    if np.abs(ss.D @ E).max() > tol:
        return False
    if ss.n_states == 0 or np.abs(ss.B @ E).max() <= tol:
        return True
    taps = markov(ss, 2 * ss.n_states).taps
    return bool(np.abs(taps @ E).max() <= tol)


@dataclass(frozen=True)
class YoulaData:
    """Nominal controller, extended plant and the fixed systems of the
    affine closed-loop parameterization.

    ``t1``, ``t2`` and ``t3`` share one closed-loop state realization;
    ``t1_stable`` and ``t2_stable`` are the same maps with the marginal
    agreement states removed (identical objects when the loop is already
    strictly Schur), and ``t3_projected`` additionally projects the state
    output onto the disagreement subspace, which is exact once the free
    parameter annihilates the indicators.  Solvers consume the stable
    variants so that their H2 norms are finite.
    """

    r_nom: StateSpace
    t1: StateSpace
    t2: StateSpace
    t3: StateSpace
    plant: Plant
    ms: MeasurementStructure
    t1_stable: StateSpace
    t2_stable: StateSpace
    t3_projected: StateSpace
    disagreement_basis: Matrix


def make_t_systems(
    p_tilde: Plant, r_nom, ms: MeasurementStructure
) -> YoulaData:
    """Validate a nominal relative controller and build T1, T2, T3.

    T1 is the disturbance-to-performance map of the nominal loop, T2 the
    (negated) injection-to-performance map and T3 the disturbance-to-state
    map:

        T1 = Pzw + Pzu Rnom (I - Pxu Rnom)^-1 Pxw
        T2 = -Pzu (I - Rnom Pxu)^-1
        T3 = (I - Pxu Rnom)^-1 Pxw

    Raises a distinct validation error when the nominal controller is
    unstable, fails to annihilate an indicator, or fails to stabilize the
    extended plant modulo the agreement directions.
    """
    rn = as_statespace(r_nom)
    n = p_tilde.n_states
    if rn.n_inputs != n or rn.n_outputs != p_tilde.n_ctrl:
        raise DimensionError(
            f"nominal controller must map R^{n} -> R^{p_tilde.n_ctrl}, "
            f"got {rn.n_inputs} -> {rn.n_outputs}"
        )
    if rn.n_states and not rn.is_schur():
        raise NominalUnstableError(
            f"nominal controller has spectral radius {rn.spectral_radius():.6f}"
        )
    if not check_e_constraint(rn, ms.indicators):
        raise NominalNotRelativeError(
            "nominal controller does not annihilate every component indicator"
        )
    cl = close_loop(p_tilde, rn)
    dirs = _lifted_agreement(ms, cl.n_states, n)
    if not is_internally_stable(cl, dirs):
        raise NominalNotStabilizingError(
            "nominal controller does not internally stabilize the extended "
            "plant modulo the agreement directions"
        )

    # All three systems share the nominal closed-loop state map.
    A_cl = cl.A
    nr = rn.n_states
    B1_cl = np.vstack([p_tilde.B1, np.zeros((nr, p_tilde.n_dist))])
    B2_cl = np.vstack([p_tilde.B2, np.zeros((nr, p_tilde.n_ctrl))])
    C1_cl = np.hstack([p_tilde.C1 + p_tilde.D12 @ rn.D, p_tilde.D12 @ rn.C])
    Cx_cl = np.hstack([np.eye(n), np.zeros((n, nr))])
    t1 = StateSpace(A_cl, B1_cl, C1_cl, np.zeros((p_tilde.n_perf, p_tilde.n_dist)))
    t2 = StateSpace(A_cl, B2_cl, -C1_cl, -p_tilde.D12)
    t3 = StateSpace(A_cl, B1_cl, Cx_cl, np.zeros((n, p_tilde.n_dist)))

    V = ms.disagreement_basis()
    proj = V @ V.T
    t3p = StateSpace(A_cl, B1_cl, proj @ Cx_cl, np.zeros((n, p_tilde.n_dist)))
    if t1.is_schur():
        t1s, t2s = t1, t2
    else:
        t1s = drop_invariant_subspace(t1, dirs)
        t2s = drop_invariant_subspace(t2, dirs)
        t3p = drop_invariant_subspace(t3p, dirs)
    return YoulaData(
        r_nom=rn,
        t1=t1,
        t2=t2,
        t3=t3,
        plant=p_tilde,
        ms=ms,
        t1_stable=t1s,
        t2_stable=t2s,
        t3_projected=t3p,
        disagreement_basis=V,
    )


def _lifted_agreement(ms: MeasurementStructure, n_cl: int, n_plant: int) -> list:
    dirs = []
    for e in ms.agreement_directions():
        v = np.zeros(n_cl)
        v[:n_plant] = e
        dirs.append(v)
    return dirs


def _nominal_loop(yd: YoulaData) -> StateSpace:
    """The inner transform F(Rnom, Pxu) = Pxu (I - Rnom Pxu)^-1."""
    return lft(yd.r_nom, yd.plant.pxu())


def r_from_q(yd: YoulaData, Q) -> StateSpace:
    """State-feedback map behind a free parameter:
    R = Rnom - F(F(Rnom, Pxu), Q) with F(G, H) = H (I - G H)^-1.

    Every such R internally stabilizes the extended plant modulo the
    agreement directions, and R inherits indicator annihilation from Q.
    """
    Qss = as_statespace(Q)
    return subtract(yd.r_nom, lft(_nominal_loop(yd), Qss))


def q_from_r(yd: YoulaData, R) -> StateSpace:
    """Free parameter behind a stabilizing state-feedback map.

    Inverts the parameterization: with N = F(Rnom, Pxu) and D = Rnom - R,
    Q = (I + D N)^-1 D, which reproduces R's closed loop exactly through
    :func:`r_from_q`.  Raises when R does not internally stabilize the
    extended plant modulo agreement.
    """
    Rss = as_statespace(R)
    cl = close_loop(yd.plant, Rss)
    dirs = _lifted_agreement(yd.ms, cl.n_states, yd.plant.n_states)
    if not is_internally_stable(cl, dirs):
        raise DomainError(
            "R does not internally stabilize the extended plant; the "
            "recovered parameter would be unstable"
        )
    N = _nominal_loop(yd)
    delta = subtract(yd.r_nom, Rss)
    return lft(-N, delta)
