"""Workbench for Orc orchestrations, feature models, and modal
transition systems: parse and execute Orc programs (one interleaving
or all of them), enumerate feature-model products, decide the
MTS product relation, and compile feature models into Orc.
"""

from .errors import BoundExceeded
from .feature_model import (
    AltGroup, Excludes, Feature, FeatureModel, ModelBuilder, Requires,
    UnknownFeature, Violation, enumerate_products, is_valid,
    product_count, sorted_products, validate,
)
from .mts import (
    ActionMismatch, ClauseFailure, Lts, Mts, ProductCheck,
    derive_products, export_dot, is_product, modality,
)
from .orc_ast import (
    FALSE, SIGNAL, STOP, TRUE, Asymmetric, Bool, DefCall, Definition, Emit,
    Otherwise, Parallel, Pending, Program, Sequential, Signal, SiteCall,
    SiteSpec, Stop, Var, free_vars, render_expr, render_value, substitute,
)
from .orc_parser import (
    ParseDiagnostic, ParseError, SourceSpan, format_diagnostic,
    parse_expr, parse_feature_model, parse_lts, parse_mts,
    parse_program, render_feature_model, render_lts, render_mts,
    render_program,
)
from .orc_semantics import (
    Bounds, Call, ExecState, ExploredLts, Internal, Publish, Return, Tick,
    Trace, event_label, explore, is_halted, lts_view, publication_sequences,
    run, step,
)
from .variability_encoding import (
    EncodingPlan, MissingTrigger, PlanMismatch, UnsupportedGroupSize,
    default_plan, encode, encode_alternative,
)

__version__ = "0.1.0"
