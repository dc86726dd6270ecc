"""Every public name of relsyn is listed here.

A name that `relsyn` exports, or a public attribute of a class that it
exports, is a concept a caller may come to rely on, so adding or removing
one needs an edit to EXPORTS or MEMBERS, where it is seen.
"""

import types

import relsyn

#: Each public name of the package namespace, submodules aside.
EXPORTS = set(
    """
    ConstraintSystem DEFAULT_Q_HORIZON DecompositionError DimensionError
    DomainError FirSystem InfoStructure LstsqResult MeasurementMatrixError
    MeasurementStructure NominalControllerError NominalNotRelativeError
    NominalNotStabilizingError NominalUnstableError Plant RelsynError
    StateSpace StructureViolationError SynthesisProblem SynthesisResult
    WellPosednessError YoulaData build_ring_problem build_tilde_plant
    check_relative circulant_reduce close_loop combined_r_structure
    compile_constraints delay_structure_from_adjacency drop_invariant_subspace
    fir_add fir_compose fir_lft h2_norm_fir h2_norm_lyap
    is_internally_stable is_qi laplacian_rnom least_squares lft
    make_t_systems markov membership nominal_verdicts parallel q_from_r
    qi_certificate r_from_q recover_controller recovered_r_fir
    recovered_structure ring_adjacency ring_delay_structure ring_plant
    series solve solve_ring_circulant transfer_pattern validate_c2
    """.split()
)

#: The public fields, properties and methods of each exported class that
#: is not an exception.
MEMBERS = {
    "ConstraintSystem": "cols constraints horizon rows satisfied_by var_index",
    "FirSystem": "horizon n_inputs n_outputs padded tap taps to_statespace "
    "truncated",
    "InfoStructure": "cols from_sparsity min_delay rows unrestricted",
    "LstsqResult": "gradient_norm rank rank_deficient residual x",
    "MeasurementStructure": "adjacency c2 components disagreement_basis "
    "indicators n_components n_measurements n_states recovery_map",
    "Plant": "A B1 B2 C1 C2 D12 n_ctrl n_dist n_meas n_perf n_states "
    "pxu pxw pyu pzu pzw",
    "StateSpace": "A B C D is_schur n_inputs n_outputs n_states "
    "spectral_radius static_gain",
    "SynthesisProblem": "horizon_obj horizon_q ms structure yd",
    "SynthesisResult": "constraint_violation k_opt objective q_opt "
    "rank_deficient residual_gradient yd",
    "YoulaData": "disagreement_basis ms nominal_loop plant r_nom t1 t1_stable "
    "t2 t2_stable t3 t3_projected",
}


def public_names(module: types.ModuleType) -> set:
    """Each public non-module name of `module`, and "Class.member" for
    each public member of an exported class that is not an exception,
    dataclass fields included."""
    found = set()
    for name in dir(module):
        obj = getattr(module, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        found.add(name)
        if isinstance(obj, type) and not issubclass(obj, BaseException):
            members = set(dir(obj)) | set(getattr(obj, "__annotations__", {}))
            found |= {f"{name}.{m}" for m in members if not m.startswith("_")}
    return found


def test_public_names_are_the_listed_ones():
    listed = EXPORTS | {f"{c}.{m}" for c, ms in MEMBERS.items() for m in ms.split()}
    assert public_names(relsyn) == listed


def test_members_fields_and_skipped_names_are_found():
    class Box:
        size: int
        shape = (1, 2)

        def grow(self):
            pass

        @property
        def area(self):
            return 0

        def _hidden(self):
            pass

    class Oops(ValueError):
        code = 1

    module = types.ModuleType("m")
    module.Box, module.Oops, module.f = Box, Oops, len
    module._private, module.__version__ = 1, "0"
    module.sub = types.ModuleType("m.sub")
    assert public_names(module) == {
        "Box",
        "Box.size",
        "Box.shape",
        "Box.grow",
        "Box.area",
        "Oops",
        "f",
    }
