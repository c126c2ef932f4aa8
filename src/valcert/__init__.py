"""Exact-arithmetic workbench for valued-field constructions.

Public surface: value groups with raw int/Fraction/tuple elements,
truncated valued series, sparse multivariate polynomials with Hasse
derivatives, pseudo-convergent sequences, index-separation certificates,
Taylor-recentring rewrite certificates, and smooth-subalgebra
presentations with unit-Jacobian certificates.  Every certificate
carries enough data for independent re-verification.
"""

from .errors import (HorizonError, IndeterminateValError, InputError,
                     NotStabilizedError, UndecidedError, ValcertError,
                     VariantMismatchError, VerificationError)
from .fields import GF, QQ, Field, characteristic
from .group import INF, INTEGERS, RATIONALS, Lex, ValueGroup
from .pcs import (DEFAULT_HORIZON, DerivedSequence, PseudoSequence,
                  RuleSequence, TableSequence, lacunary_sequence,
                  sequence_from_json)
from .poly import Monomial, Poly, VarTag, sylvester_resultant
from .rewrite import (DEFAULT_WINDOW, Plans, RewriteCert, recenter_at, rw,
                      taylor_recenter)
from .separation import (SeparationCert, sep_cross_pair, sep_multi,
                         sep_shifted_pair, sep_tail, separate_indices)
from .series import ValuedSeries
from .smooth import (SmoothCert, SmoothPresentation, Witness, sm_check,
                     sm_family, sm_fraction, sm_pair, sm_verify)

__version__ = "0.1.0"
