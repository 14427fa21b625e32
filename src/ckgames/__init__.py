"""ckgames: a model checker for common-knowledge announcement games.

Finite possible-world semantics for hat and number puzzles: build a universe
from a public announcement, give each agent a visibility set, then run
simultaneous or circular YES/NO announcement rounds, filtering the world set
after every announcement until everyone knows or a fixpoint certifies that
someone never will.
"""

from .worlds import (
    NO,
    YES,
    ContractViolation,
    EmptyStateError,
    KnowledgeState,
    VisibilityGraph,
    World,
    answer_vector,
    filter_simultaneous,
    filter_turn,
    knows_own,
)
from .scenarios import (
    Blind,
    Circular,
    ConsecutiveDistinct,
    FarCircle,
    Full,
    GenerationError,
    HatsAtLeast,
    HatsExactly,
    MaxDiffAtMost,
    MaxDiffExact,
    NearCircle,
    NearLine,
    Scenario,
    Simultaneous,
    SumInSet,
    SumOrProduct,
    ZeroOne,
    gen_universe,
    gen_visibility,
)
from .engine import (
    EngineError,
    Event,
    Eventual,
    SweepReport,
    SweepRow,
    Transcript,
    run,
    stability_check,
    sweep,
    transcript_digest,
)

__version__ = "0.1.0"
