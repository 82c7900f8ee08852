"""Term-annotated derivations, rewriting, and proof identity.

The package splits into: `core` (formulas, terms, typing), `rewrite`
(reduction and equality search), `nd` and `sc` (the two checked
calculi), `meaning` (sense, denotation, classification), `syntax`
(concrete syntax) and `cli` (the command line).
"""

from .core import (
    Abort,
    Absurd,
    And,
    App,
    Atom,
    Case,
    Context,
    Formula,
    Fst,
    Implies,
    Inl,
    Inr,
    Lam,
    Or,
    Pair,
    ProofmeanError,
    Snd,
    Term,
    TypeMismatch,
    UnboundVariable,
    Var,
    VarRef,
    alpha_equal,
    canonicalize,
    free_vars,
    fresh_var,
    substitute,
    substitute_many,
    term_size,
    type_of,
)
from .rewrite import (
    INCONCLUSIVE,
    BetaEta,
    BetaEtaGamma,
    EqualityMode,
    FuelExhausted,
    Inconclusive,
    beta_step,
    beta_steps,
    equivalent,
    eta_step,
    eta_steps,
    gamma_steps,
    normalize,
)
from .nd import (
    BadDischarge,
    Judgment,
    NdDerivation,
    RuleMismatch,
    VariableTypeClash,
    check_nd,
    end_term_nd,
)
from .sc import (
    CutInfo,
    FreshnessViolation,
    ScDerivation,
    Sequent,
    check_sc,
    cut_nodes,
    end_term_sc,
)
from .meaning import (
    DifferentDenotation,
    DifferentSenseSameDenotation,
    SameDenotationUpToGamma,
    SameSenseSameDenotation,
    Sense,
    Verdict,
    classify,
    denotation_of,
    same_denotation,
    same_sense,
    sense_of,
    sense_renaming,
)
from .syntax import (
    DanglingDischargeLabel,
    ParseError,
    SourceFile,
    UnknownRule,
    parse,
    parse_file,
    parse_formula,
    parse_term,
    render_derivation,
    render_file,
    render_formula,
    render_term,
)

__version__ = "0.1.0"
