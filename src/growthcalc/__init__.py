"""Growth-rate calculus on exponential towers.

Building blocks: exact level-index arithmetic (lixnum), a small function
DSL with symbolic differentiation (funcexpr), Abel-equation solving and
fractional iteration (abel), the concrete super-logarithm hierarchy
(xihier), order-of-growth estimation and regularity testers (orders), the
growth-class machinery (classify), Ackermann levels with the
level-lowering operator (ackermann), and an end-to-end verification suite
(acceptance).  `growthcalc` on the command line fronts all of it.
"""

from . import abel, acceptance, ackermann, classify, funcexpr, lixnum, orders, xihier
from .abel import AbelSolution, solve_abel
from .ackermann import A_real, G_real, ack, op_L
from .classify import ClassReport, catalog, classify_expr, verify_chain
from .funcexpr import differentiate, evaluate, invert_at, parse
from .lixnum import DomainError, LIReal, exp_li, ln_li, xi_exact, xi_inv_exact
from .orders import Ladder, OrderEstimate, check_R, order_of
from .xihier import XiHierarchy, default_hierarchy

__version__ = "0.1.0"

__all__ = [
    "abel", "acceptance", "ackermann", "classify", "funcexpr", "lixnum",
    "orders", "xihier",
    "AbelSolution", "solve_abel", "A_real", "G_real", "ack", "op_L",
    "ClassReport", "catalog", "classify_expr", "verify_chain",
    "differentiate", "evaluate", "invert_at", "parse",
    "DomainError", "LIReal", "exp_li", "ln_li", "xi_exact", "xi_inv_exact",
    "Ladder", "OrderEstimate", "check_R", "order_of",
    "XiHierarchy", "default_hierarchy",
    "__version__",
]
