"""Convex change of variables for relative-feedback synthesis.

Given an extended plant whose measured output is the full state, a nominal
stable relative controller that stabilizes it yields three fixed systems
T1, T2, T3 such that every achievable disturbance-to-performance map is
T1 + T2 Q T3 with Q a free stable parameter, and the controller behind a
given Q is recovered through a pair of feedback transforms.  Annihilation
of the component indicator vectors transfers exactly between the state
feedback and the free parameter, which is what makes the relative
measurement constraint convex in Q.  The nominal's annihilation is tested
by recovery's own check, :func:`~relsyn.measurement.check_relative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DecompositionError,
    DimensionError,
    DomainError,
    NominalNotRelativeError,
    NominalNotStabilizingError,
    NominalUnstableError,
)
from .lti import (
    Matrix,
    Plant,
    StateSpace,
    as_statespace,
    close_loop,
    drop_invariant_subspace,
    is_internally_stable,
    lft,
    parallel,
)
from .measurement import MeasurementStructure, relative_taps
from .structure import as_adjacency


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
    A = as_adjacency(adjacency)
    L = np.diag(A.sum(axis=1)) - A
    return StateSpace.static_gain(-L / len(A))


@dataclass(frozen=True)
class YoulaData:
    """Nominal controller, extended plant and the fixed systems of the
    affine closed-loop parameterization.

    ``t1``, ``t2`` and ``t3`` share one closed-loop state realization, and
    so does ``nominal_loop``, N = F(Rnom, Pxu) = Pxu (I - Rnom Pxu)^-1, the
    loop with input [B2; 0] and output [I 0].
    ``t1_stable`` and ``t2_stable`` are the same maps with the marginal
    agreement states removed (identical objects when the loop is already
    strictly Schur), and ``t3_projected`` additionally projects the state
    output onto the disagreement subspace, which is exact once the free
    parameter annihilates the indicators.  Each stable map is built on
    first access and then kept: the solver's Stein route and
    Lyapunov-based norms read them, its eigenbasis route never does.
    When the performance output sees an agreement mode, that first access
    (so a solve on the Stein route) raises the :class:`DomainError` of
    :func:`~relsyn.lti.drop_invariant_subspace`.
    """

    r_nom: StateSpace
    t1: StateSpace
    t2: StateSpace
    t3: StateSpace
    plant: Plant
    ms: MeasurementStructure
    disagreement_basis: Matrix

    @cached_property
    def nominal_loop(self) -> StateSpace:
        n, l = self.plant.n_states, self.plant.n_ctrl
        return StateSpace(self.t1.A, self.t2.B, self.t3.C, np.zeros((n, l)))

    @cached_property
    def t1_stable(self) -> StateSpace:
        return self._stable(self.t1)

    @cached_property
    def t2_stable(self) -> StateSpace:
        return self._stable(self.t2)

    @cached_property
    def t3_projected(self) -> StateSpace:
        t3, V = self.t3, self.disagreement_basis
        return self._stable(StateSpace(t3.A, t3.B, V @ V.T @ t3.C, t3.D))

    def _stable(self, sys: StateSpace) -> StateSpace:
        if self.t1.is_schur():
            return sys
        return drop_invariant_subspace(sys, _lifted_agreement(self.ms, sys.n_states))


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
    stable, relative, stabilizing, cl = nominal_verdicts(p_tilde, rn, ms)
    if not stable:
        raise NominalUnstableError(
            f"nominal controller has spectral radius {rn.spectral_radius():.6f}"
        )
    if not relative:
        raise NominalNotRelativeError(
            "nominal controller does not annihilate every component indicator"
        )
    if not stabilizing:
        raise NominalNotStabilizingError(
            "nominal controller does not internally stabilize the extended "
            "plant modulo the agreement directions"
        )

    # T1 is the nominal closed loop itself; T2 and T3 share its state map.
    nr = rn.n_states
    B2_cl = np.vstack([p_tilde.B2, np.zeros((nr, p_tilde.n_ctrl))])
    Cx_cl = np.hstack([np.eye(n), np.zeros((n, nr))])
    t2 = StateSpace(cl.A, B2_cl, -cl.C, -p_tilde.D12)
    t3 = StateSpace(cl.A, cl.B, Cx_cl, np.zeros((n, p_tilde.n_dist)))

    return YoulaData(
        r_nom=rn,
        t1=cl,
        t2=t2,
        t3=t3,
        plant=p_tilde,
        ms=ms,
        disagreement_basis=ms.disagreement_basis(),
    )


def nominal_verdicts(p_tilde: Plant, r_nom, ms: MeasurementStructure) -> tuple:
    """The three checks on a nominal controller, in the order in which
    :func:`make_t_systems` raises on them.

    Returns (stable, relative, stabilizing, cl): whether the controller is
    Schur stable, whether it annihilates every component indicator, and
    whether it internally stabilizes the extended plant modulo the
    agreement directions, with cl the closed loop of that last check.
    """
    rn = as_statespace(r_nom)
    try:
        relative_taps(rn, ms.indicators)
    except DecompositionError:
        relative = False
    else:
        relative = True
    cl = close_loop(p_tilde, rn)
    dirs = _lifted_agreement(ms, cl.n_states)
    return rn.is_schur(), relative, is_internally_stable(cl, dirs), cl


def _lifted_agreement(ms: MeasurementStructure, n_cl: int) -> list:
    """The indicators, padded with zeros on the nominal's states."""
    return list(np.pad(ms.indicators, ((0, 0), (0, n_cl - ms.n_states))))


def r_from_q(yd: YoulaData, Q) -> StateSpace:
    """State-feedback map behind a free parameter:
    R = Rnom - F(F(Rnom, Pxu), Q) with F(G, H) = H (I - G H)^-1.

    Every such R internally stabilizes the extended plant modulo the
    agreement directions, and R inherits indicator annihilation from Q.
    """
    Qss = as_statespace(Q)
    return parallel(yd.r_nom, -lft(yd.nominal_loop, Qss))


def q_from_r(yd: YoulaData, R) -> StateSpace:
    """Free parameter behind a stabilizing state-feedback map.

    Inverts the parameterization: with N = F(Rnom, Pxu) and D = Rnom - R,
    Q = (I + D N)^-1 D, which reproduces R's closed loop exactly through
    :func:`r_from_q`.  Raises when R does not internally stabilize the
    extended plant modulo agreement.
    """
    Rss = as_statespace(R)
    cl = close_loop(yd.plant, Rss)
    dirs = _lifted_agreement(yd.ms, cl.n_states)
    if not is_internally_stable(cl, dirs):
        raise DomainError(
            "R does not internally stabilize the extended plant; the "
            "recovered parameter would be unstable"
        )
    delta = parallel(yd.r_nom, -Rss)
    return lft(-yd.nominal_loop, delta)
