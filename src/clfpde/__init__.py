"""Control Lyapunov functionals and boundary feedback for 1-D parabolic plants.

Design chain: Sturm-Liouville eigensystem -> shape functions -> reduced modal
model -> stabilizing gains -> Lyapunov functional and feedback kernels ->
closed-loop spectral simulation.  Semilinear plants with linear-growth
nonlinearities get cancellation or domination controllers with constructive
certificates.
"""

__version__ = "0.1.0"

from .spectral import (            # noqa: F401
    Coefficient,
    EigenSystem,
    Grid,
    SLProblem,
    check_assumption_h,
    eigensolve,
    make_grid,
    project,
)
from .shapes import (              # noqa: F401
    ShapeSet,
    build_shape_set,
    orthogonality_defect,
    validate_mu_set,
)
from .reduced import (             # noqa: F401
    GainDesign,
    ReducedModel,
    build_reduced_model,
    check_controllability,
    design_gains,
    input_vector_closed_form,
)
from .lyapunov import (            # noqa: F401
    CLFParams,
    ClosedLoop,
    FeedbackLaw,
    build_feedback_law,
    linear_loop,
    select_clf_params,
)
from .semilinear import (          # noqa: F401
    NonlinearitySpec,
    SemilinearDesign,
    build_semilinear_design,
    max_growth_bound,
    select_linear_clf_params,
    select_nonlinear_clf_params,
    semilinear_loop,
)
from .sim import (                 # noqa: F401
    SimConfig,
    Trajectory,
    fit_decay_rate,
    simulate_linear,
    simulate_semilinear,
)
