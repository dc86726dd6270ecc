"""Discrete-time LTI state-space and FIR transfer-matrix algebra.

Everything here is in the z-domain with unit sample time.  A
:class:`StateSpace` is the quadruple (A, B, C, D) of ``x[t+1] = A x + B u``,
``y = C x + D u``; a :class:`FirSystem` is a finite impulse-response
transfer matrix stored tap by tap (tap k is the coefficient of z^-k).
Compositions follow matrix-product order: ``series(G, H)`` realizes the
product G(z) H(z), i.e. the input feeds H first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import DimensionError, DomainError, WellPosednessError

Matrix = NDArray[np.float64]

#: Eigenvalue-modulus margin used by every stability test.
STABILITY_TOL = 1e-9

#: Default number of impulse-response taps kept by :func:`markov`.
DEFAULT_HORIZON = 200

#: Residual tolerance when checking that a subspace is A-invariant.
_INVARIANCE_TOL = 1e-8


def _as_matrix(value, name: str) -> Matrix:
    arr = np.atleast_2d(np.asarray(value, dtype=np.float64))
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StateSpace:
    """Discrete-time state-space system ``x[t+1] = A x + B u, y = C x + D u``.

    A zero-state system (``A`` of shape (0, 0)) represents a static gain.
    All matrices are copied and made read-only at construction.
    """

    A: Matrix
    B: Matrix
    C: Matrix
    D: Matrix

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} cols, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionError(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "D", _freeze(D))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A) if self.n_states else np.zeros(0, complex)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.poles()))) if self.n_states else 0.0

    def is_schur(self, tol: float = STABILITY_TOL) -> bool:
        return self.spectral_radius() < 1.0 - tol

    def __neg__(self) -> "StateSpace":
        return StateSpace(self.A, self.B, -self.C, -self.D)

    @staticmethod
    def static_gain(D) -> "StateSpace":
        D = _as_matrix(D, "D")
        n0 = np.zeros((0, 0))
        return StateSpace(n0, np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D)


@dataclass(frozen=True)
class FirSystem:
    """Finite impulse response: taps H0, ..., HT with Hk the z^-k coefficient.

    Stored as a read-only (T+1, p, m) array.  A single-tap system is a
    static gain; every FirSystem is stable by construction.
    """

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim == 2:
            taps = taps[np.newaxis]
        if taps.ndim != 3:
            raise DimensionError(f"taps must be (T+1, p, m), got shape {taps.shape}")
        if taps.shape[0] == 0:
            raise DimensionError("a FIR system needs at least one tap")
        if not np.all(np.isfinite(taps)):
            raise DomainError("FIR taps contain non-finite entries")
        object.__setattr__(self, "taps", _freeze(taps))

    @property
    def horizon(self) -> int:
        return self.taps.shape[0] - 1

    @property
    def n_outputs(self) -> int:
        return self.taps.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.taps.shape[2]

    def tap(self, k: int) -> Matrix:
        """Tap k, returning a zero matrix beyond the stored horizon."""
        if 0 <= k <= self.horizon:
            return self.taps[k]
        return np.zeros((self.n_outputs, self.n_inputs))

    def padded(self, horizon: int) -> "FirSystem":
        """Same system with zero taps appended up to `horizon`."""
        if horizon < self.horizon:
            raise DomainError("padded() cannot shorten a FIR system; use truncated()")
        extra = np.zeros((horizon - self.horizon, self.n_outputs, self.n_inputs))
        return FirSystem(np.concatenate([self.taps, extra]))

    def truncated(self, horizon: int) -> "FirSystem":
        if horizon >= self.horizon:
            return self.padded(horizon)
        return FirSystem(self.taps[: horizon + 1])

    def shifted(self, delay: int) -> "FirSystem":
        """Multiply by z^-delay (prepend `delay` zero taps)."""
        if delay < 0:
            raise DomainError("delay must be nonnegative")
        zeros = np.zeros((delay, self.n_outputs, self.n_inputs))
        return FirSystem(np.concatenate([zeros, self.taps]))

    def __neg__(self) -> "FirSystem":
        return FirSystem(-self.taps)

    @staticmethod
    def zero(p: int, m: int, horizon: int = 0) -> "FirSystem":
        return FirSystem(np.zeros((horizon + 1, p, m)))

    @staticmethod
    def identity(p: int) -> "FirSystem":
        return FirSystem(np.eye(p)[np.newaxis])

    @staticmethod
    def from_taps(taps) -> "FirSystem":
        return FirSystem(np.stack([np.atleast_2d(np.asarray(t, float)) for t in taps]))

    def to_statespace(self) -> StateSpace:
        """Shift-register realization (state dimension m * horizon)."""
        T, p, m = self.horizon, self.n_outputs, self.n_inputs
        if T == 0:
            return StateSpace.static_gain(self.taps[0])
        n = m * T
        A = np.zeros((n, n))
        if T > 1:
            A[m:, :-m] = np.eye(m * (T - 1))
        B = np.zeros((n, m))
        B[:m] = np.eye(m)
        C = np.hstack([self.taps[k] for k in range(1, T + 1)])
        return StateSpace(A, B, C, self.taps[0])


def as_statespace(sys) -> StateSpace:
    """Accept either representation and return a state-space realization."""
    if isinstance(sys, StateSpace):
        return sys
    if isinstance(sys, FirSystem):
        return sys.to_statespace()
    return StateSpace.static_gain(sys)


@dataclass(frozen=True)
class Plant:
    """Generalized plant with inputs [w, u] and outputs [z, y].

    The state equation is ``x[t+1] = A x + B1 w + B2 u`` with performance
    output ``z = C1 x + D12 u`` and measurement ``y = C2 x``; neither output
    has w-feedthrough and y has no feedthrough at all.
    """

    A: Matrix
    B1: Matrix
    B2: Matrix
    C1: Matrix
    D12: Matrix
    C2: Matrix

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        for name in ("B1", "B2"):
            M = _as_matrix(getattr(self, name), name)
            if M.shape[0] != n:
                raise DimensionError(f"{name} has {M.shape[0]} rows, expected {n}")
            object.__setattr__(self, name, _freeze(M))
        for name in ("C1", "C2"):
            M = _as_matrix(getattr(self, name), name)
            if M.shape[1] != n:
                raise DimensionError(f"{name} has {M.shape[1]} cols, expected {n}")
            object.__setattr__(self, name, _freeze(M))
        D12 = _as_matrix(self.D12, "D12")
        if D12.shape != (self.C1.shape[0], self.B2.shape[1]):
            raise DimensionError(
                f"D12 has shape {D12.shape}, expected "
                f"{(self.C1.shape[0], self.B2.shape[1])}"
            )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "D12", _freeze(D12))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_dist(self) -> int:
        return self.B1.shape[1]

    @property
    def n_ctrl(self) -> int:
        return self.B2.shape[1]

    @property
    def n_perf(self) -> int:
        return self.C1.shape[0]

    @property
    def n_meas(self) -> int:
        return self.C2.shape[0]

    def ss(self) -> StateSpace:
        """The plant as one system, inputs [w, u], outputs [z, y]."""
        B = np.hstack([self.B1, self.B2])
        C = np.vstack([self.C1, self.C2])
        D = np.block(
            [
                [np.zeros((self.n_perf, self.n_dist)), self.D12],
                [np.zeros((self.n_meas, self.n_dist + self.n_ctrl))],
            ]
        )
        return StateSpace(self.A, B, C, D)

    def pzw(self) -> StateSpace:
        return StateSpace(self.A, self.B1, self.C1, np.zeros((self.n_perf, self.n_dist)))

    def pzu(self) -> StateSpace:
        return StateSpace(self.A, self.B2, self.C1, self.D12)

    def pyw(self) -> StateSpace:
        return StateSpace(self.A, self.B1, self.C2, np.zeros((self.n_meas, self.n_dist)))

    def pyu(self) -> StateSpace:
        return StateSpace(self.A, self.B2, self.C2, np.zeros((self.n_meas, self.n_ctrl)))

    def pxw(self) -> StateSpace:
        n = self.n_states
        return StateSpace(self.A, self.B1, np.eye(n), np.zeros((n, self.n_dist)))

    def pxu(self) -> StateSpace:
        n = self.n_states
        return StateSpace(self.A, self.B2, np.eye(n), np.zeros((n, self.n_ctrl)))


# ---------------------------------------------------------------------------
# impulse responses and composition
# ---------------------------------------------------------------------------


def markov(sys: StateSpace, horizon: int = DEFAULT_HORIZON) -> FirSystem:
    """Impulse-response taps D, CB, CAB, ..., C A^(horizon-1) B.

    Parameters
    ----------
    sys : StateSpace
    horizon : int
        Number of delayed taps kept; the result has horizon+1 taps.
    """
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    p, m = sys.n_outputs, sys.n_inputs
    taps = np.zeros((horizon + 1, p, m))
    taps[0] = sys.D
    if sys.n_states == 0:  # a static gain: every delayed tap is zero
        return FirSystem(taps)
    X = sys.B
    for k in range(1, horizon + 1):
        taps[k] = sys.C @ X
        X = sys.A @ X
    return FirSystem(taps)


def fir_compose(G: FirSystem, H: FirSystem, horizon: int | None = None) -> FirSystem:
    """Product G(z) H(z) by Cauchy convolution of the tap sequences.

    The result is exact up to the retained horizon (default: the sum of the
    input horizons, which retains every nonzero tap).
    """
    if G.n_inputs != H.n_outputs:
        raise DimensionError(
            f"inner dimensions disagree: G is {G.n_outputs}x{G.n_inputs}, "
            f"H is {H.n_outputs}x{H.n_inputs}"
        )
    if horizon is None:
        horizon = G.horizon + H.horizon
    return FirSystem(_convolve(G.taps, H.taps, horizon))


def _convolve(g: np.ndarray, h: np.ndarray, horizon: int) -> np.ndarray:
    """Taps 0..horizon of the Cauchy product of tap stacks g and h.

    Loops over the taps of the shorter stack, each pass one batched
    (BLAS) matrix product against the whole other stack.
    """
    out = np.zeros((horizon + 1, g.shape[1], h.shape[2]))
    if g.shape[0] <= h.shape[0]:
        for a in range(min(g.shape[0] - 1, horizon) + 1):
            hi = min(h.shape[0] - 1, horizon - a)
            # out[a + b] += g_a @ h_b for every retained b
            out[a : a + hi + 1] += g[a] @ h[: hi + 1]
    else:
        for b in range(min(h.shape[0] - 1, horizon) + 1):
            hi = min(g.shape[0] - 1, horizon - b)
            # out[a + b] += g_a @ h_b for every retained a
            out[b : b + hi + 1] += g[: hi + 1] @ h[b]
    return out


def fir_add(G: FirSystem, H: FirSystem) -> FirSystem:
    if (G.n_outputs, G.n_inputs) != (H.n_outputs, H.n_inputs):
        raise DimensionError("FIR addition needs matching dimensions")
    T = max(G.horizon, H.horizon)
    return FirSystem(G.padded(T).taps + H.padded(T).taps)


def fir_sub(G: FirSystem, H: FirSystem) -> FirSystem:
    return fir_add(G, -H)


def fir_lft(G: FirSystem, H: FirSystem, horizon: int) -> FirSystem:
    """Tap-recursive loop transform H (I - G H)^(-1) on FIR systems.

    Solves S = H + H G S one tap at a time, which resums the Neumann
    series H + HGH + HGHGH + ... exactly up to the retained horizon.
    Unlike composing the state-space realization, the recursion never
    touches internal modes, so it stays well conditioned even when the
    realization of the loop would carry unstable hidden states.
    """
    if G.n_inputs != H.n_outputs or G.n_outputs != H.n_inputs:
        raise DimensionError("fir_lft needs G: u->v and H: v->u with matching widths")
    nu = H.n_outputs
    static = np.eye(nu) - H.taps[0] @ G.taps[0]
    Phi = _solve_static_loop(static, np.eye(nu))
    # [(HG)_1 (HG)_2 ... (HG)_horizon]: (H G)_m for m >= 1 feeds back into
    # strictly earlier taps of S
    HG = _convolve(H.taps, G.taps, horizon)[1:]
    HG_row = HG.transpose(1, 0, 2).reshape(nu, horizon * nu)
    # R[horizon - k] = S[k], so the earlier taps S[k-1], ..., S[0] that tap k
    # sums over are the contiguous slice R[horizon - k + 1:]
    R = np.zeros((horizon + 1, nu, H.n_inputs))
    for k in range(horizon + 1):
        past = R[horizon - k + 1 :].reshape(k * nu, H.n_inputs)
        R[horizon - k] = Phi @ (H.tap(k) + HG_row[:, : k * nu] @ past)
    return FirSystem(R[::-1].copy())


def series(G: StateSpace, H: StateSpace) -> StateSpace:
    """Realization of the product G(z) H(z) (input feeds H first)."""
    if G.n_inputs != H.n_outputs:
        raise DimensionError("inner dimensions disagree in series connection")
    ng, nh = G.n_states, H.n_states
    A = np.block(
        [
            [G.A, G.B @ H.C],
            [np.zeros((nh, ng)), H.A],
        ]
    )
    B = np.vstack([G.B @ H.D, H.B])
    C = np.hstack([G.C, G.D @ H.C])
    return StateSpace(A, B, C, G.D @ H.D)


def parallel(G: StateSpace, H: StateSpace) -> StateSpace:
    """Realization of the sum G(z) + H(z)."""
    if (G.n_outputs, G.n_inputs) != (H.n_outputs, H.n_inputs):
        raise DimensionError("parallel connection needs matching dimensions")
    ng, nh = G.n_states, H.n_states
    A = np.block(
        [
            [G.A, np.zeros((ng, nh))],
            [np.zeros((nh, ng)), H.A],
        ]
    )
    B = np.vstack([G.B, H.B])
    C = np.hstack([G.C, H.C])
    return StateSpace(A, B, C, G.D + H.D)


def subtract(G: StateSpace, H: StateSpace) -> StateSpace:
    return parallel(G, -H)


def _solve_static_loop(M: Matrix, rhs: Matrix) -> Matrix:
    """Solve (M) X = rhs, rejecting numerically singular loops."""
    if M.size == 0:
        return rhs
    if np.linalg.cond(M) > 1e12:
        raise WellPosednessError("interconnection is ill posed (singular static loop)")
    return np.linalg.solve(M, rhs)


def lft(G: StateSpace, H: StateSpace) -> StateSpace:
    """Positive-feedback loop transform H (I - G H)^(-1).

    This is the map from an excitation e to the output u of the loop
    ``u = H(e + G u)``.  Well-posedness requires I - D_G D_H invertible.
    """
    if G.n_inputs != H.n_outputs or G.n_outputs != H.n_inputs:
        raise DimensionError("lft needs G: u->v and H: v->u with matching widths")
    ng, nh = G.n_states, H.n_states
    nu, ne = H.n_outputs, H.n_inputs
    Phi = _solve_static_loop(np.eye(nu) - H.D @ G.D, np.eye(nu))
    # u = Phi (Ch xh + Dh Cg xg + Dh e)
    u_xg = Phi @ H.D @ G.C
    u_xh = Phi @ H.C
    u_e = Phi @ H.D
    # v = e + Cg xg + Dg u
    v_xg = G.C + G.D @ u_xg
    v_xh = G.D @ u_xh
    v_e = np.eye(ne) + G.D @ u_e
    A = np.block(
        [
            [G.A + G.B @ u_xg, G.B @ u_xh],
            [H.B @ v_xg, H.A + H.B @ v_xh],
        ]
    )
    B = np.vstack([G.B @ u_e, H.B @ v_e])
    C = np.hstack([u_xg, u_xh])
    return StateSpace(A, B, C, u_e)


def close_loop(plant: Plant, R: StateSpace) -> StateSpace:
    """Closed-loop map w -> z under full-state feedback u = R x.

    The returned realization stacks the plant states above the controller
    states, so its A matrix is the full closed-loop state map.  For an
    output-feedback controller K acting on y = C2 x, close the loop with
    ``series(K, StateSpace.static_gain(C2))``.
    """
    if R.n_inputs != plant.n_states:
        raise DimensionError(
            f"controller consumes {R.n_inputs} signals, plant state is {plant.n_states}"
        )
    if R.n_outputs != plant.n_ctrl:
        raise DimensionError(
            f"controller drives {R.n_outputs} inputs, plant has {plant.n_ctrl}"
        )
    nr = R.n_states
    A = np.block(
        [
            [plant.A + plant.B2 @ R.D, plant.B2 @ R.C],
            [R.B, R.A],
        ]
    )
    B = np.vstack([plant.B1, np.zeros((nr, plant.n_dist))])
    C = np.hstack([plant.C1 + plant.D12 @ R.D, plant.D12 @ R.C])
    D = np.zeros((plant.n_perf, plant.n_dist))
    return StateSpace(A, B, C, D)


# ---------------------------------------------------------------------------
# stability and norms
# ---------------------------------------------------------------------------


def is_internally_stable(
    cl: StateSpace,
    agreement_directions=None,
    tol: float = STABILITY_TOL,
) -> bool:
    """Schur stability, optionally modulo a set of agreement directions.

    Every eigenvalue must have modulus < 1 - tol.  When
    `agreement_directions` is supplied, eigenvalues up to modulus 1 + tol
    are also accepted provided their eigenvectors are agreement modes in
    closed-loop coordinates: either inside the span of the supplied
    directions, or invisible through the realization's output map.  The
    latter covers controller realizations that carry an internal replica
    of the agreement dynamics; such modes stay bounded and never reach the
    performance output.
    """
    if cl.n_states == 0:
        return True
    lam, vecs = np.linalg.eig(cl.A)
    strict = np.abs(lam) < 1.0 - tol
    if np.all(strict):
        return True
    if agreement_directions is None:
        return False
    U = _orthonormal(agreement_directions, cl.n_states)
    c_scale = 1.0 + np.abs(cl.C).max()
    for i in np.flatnonzero(~strict):
        if np.abs(lam[i]) > 1.0 + tol:
            return False
        v = vecs[:, i]
        in_span = (
            np.linalg.norm(v - U @ (U.conj().T @ v))
            <= _INVARIANCE_TOL * np.linalg.norm(v)
        )
        unobservable = (
            np.linalg.norm(cl.C @ v) <= _INVARIANCE_TOL * c_scale * np.linalg.norm(v)
        )
        if not (in_span or unobservable):
            return False
    return True


def _orthonormal(directions, n: int) -> Matrix:
    cols = np.column_stack([np.asarray(d, float).reshape(-1) for d in directions])
    if cols.shape[0] != n:
        raise DimensionError(
            f"agreement directions live in R^{cols.shape[0]}, state space is R^{n}"
        )
    Q, _ = np.linalg.qr(cols)
    return Q


def drop_invariant_subspace(sys: StateSpace, directions) -> StateSpace:
    """Exact realization with an invariant, unobservable subspace removed.

    The span of `directions` must be (numerically) A-invariant and
    annihilated by C; the input-output map is then unchanged while the
    retained dynamics exclude those modes.  Used to strip marginal
    agreement modes so that Lyapunov-based norms apply.
    """
    U = _orthonormal(directions, sys.n_states)
    S = U.T @ sys.A @ U
    scale = 1.0 + np.abs(sys.A).max()
    if np.abs(sys.A @ U - U @ S).max() > _INVARIANCE_TOL * scale:
        raise DomainError("directions do not span an A-invariant subspace")
    if np.abs(sys.C @ U).max() > _INVARIANCE_TOL * (1.0 + np.abs(sys.C).max()):
        raise DomainError("invariant subspace is observable; cannot be dropped")
    Qfull, _ = np.linalg.qr(U, mode="complete")
    V = Qfull[:, U.shape[1] :]
    return StateSpace(V.T @ sys.A @ V, V.T @ sys.B, sys.C @ V, sys.D)


def h2_norm_lyap(sys: StateSpace) -> float:
    """H2 norm sqrt(trace(D D' + C X C')) with X the reachability Gramian.

    Requires a strictly Schur A; strip marginal unobservable modes first
    (see :func:`drop_invariant_subspace`) when dealing with agreement
    dynamics.
    """
    if not sys.is_schur():
        raise DomainError(
            f"A must be strictly Schur for an H2 norm "
            f"(spectral radius {sys.spectral_radius():.6f})"
        )
    X = scipy.linalg.solve_discrete_lyapunov(sys.A, sys.B @ sys.B.T)
    val = float(np.trace(sys.D @ sys.D.T) + np.trace(sys.C @ X @ sys.C.T))
    return float(np.sqrt(max(val, 0.0)))


def h2_norm_fir(f: FirSystem) -> float:
    """Square root of the total impulse-response energy."""
    return float(np.sqrt(np.sum(f.taps**2)))
