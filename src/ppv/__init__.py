"""Exact differential-algebra engine for parameterized differential equations.

Skew operator calculus over exact coefficient towers, truncated Laurent
series with twisted derivations, order-one realizations of additive and
multiplicative differential algebraic subgroups over K(x), local
building blocks at points of the z-line, and a Galois-descent pipeline
that emits machine-checkable realization certificates.
"""

from .errors import (
    CoefficientFieldMismatch,
    DecodeError,
    DependentFamily,
    NonInvertibleLeadingTerm,
    ParseError,
    PpvError,
    RealizationError,
    SplitFieldError,
    TruncationExhausted,
    UnsupportedGroup,
    VerificationFailed,
    ZeroOperatorDivision,
)
from .scalars import Scalar, rational
from .rationals import Poly, RatFunc, k_const, t_var, x_var, f_const
from .series import INF, TruncLaurent, TwoVarLaurent, default_order
from .logext import LogExtElem
from .ore import (
    OrePoly,
    compose_dt,
    gcrd,
    monomial_window,
    right_divides,
    right_divmod,
    solve_in_window,
    wronskian_det,
    wronskian_operator,
)
from .partial_fractions import (
    PFDecomp,
    PFTerm,
    decompose,
    has_antiderivative,
    linear_roots,
    logarithmic_part,
    reassemble,
)
from .groups import (
    FiniteCyclic,
    GaSub,
    Generated,
    GeneratedPart,
    GmConst,
    GmSub,
    GroupSpec,
    closure_of_additive,
    contains,
    group_eq,
    is_subgroup,
    no_proper_subgroups,
)
from .realization import (
    Realization,
    NecessaryReport,
    check_membership_ga,
    check_membership_gm,
    fundamental_set_in_window,
    necessary_condition_report,
    realize_ga,
    realize_ga_from_generators,
    realize_gm,
    realize_in_window,
    window_kernel_dimension,
)
from .local_blocks import (
    LocalBlock,
    block_cyclic,
    block_ga_closure,
    block_gm_const,
    fp_membership,
    make_block,
)
from .descent import (
    Assumption,
    Certificate,
    DecompositionPart,
    GaloisDatum,
    GammaElement,
    PointOrbit,
    Transcript,
    act_on_point,
    find_free_orbits,
    root_subgroup_parts,
    run_criterion,
    sigma_map,
    standard_sl2_decomposition,
    transport_block,
    twist_mutation_detected,
    unipotent_generator_part,
    verify_equivariance,
    verify_sigma_commutes,
)
from .parser import parse_basis, parse_expr, parse_k, parse_operator, parse_xrat

__version__ = "0.1.0"
