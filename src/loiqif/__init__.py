"""Quantitative information flow analysis on the lattice of partitions.

Programs of a small while-language are interpreted as partitions of
their secret input space (inputs in one block produce the same
observable output) and those partitions are measured and compared under
Shannon-entropy, guessing-probability, guessing-count, min-entropy and
channel-capacity notions of leakage, with constructive witness
distributions whenever two programs' partitions are not order related.
"""

from .analysis import (
    AnalysisError,
    LoopAnalysis,
    leakage,
    leaks_same_information,
    loop_analyze,
    multi_run,
    program_capacity,
    self_compose,
)
from .lang import (
    AttackerConfig,
    ConfigError,
    EnumerationCapError,
    Observable,
    ParseError,
    Program,
    eval_program,
    loi,
    parse,
    program_to_source,
)
from .measures import (
    Distribution,
    InvalidDistributionError,
    MeasureReport,
    capacity_achieving_distribution,
    channel_capacity,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_guesses,
    ge_leakage,
    ge_prime,
    guess_prob,
    joint_entropy,
    me_leakage,
    me_prime,
    measure_report,
    mutual_information,
    shannon_distance,
)
from .ordering import (
    OrderResult,
    OrderWitness,
    Relation,
    compare,
    equivalence_audit,
    find_split_block,
    verify_witness,
)
from .partition import (
    Domain,
    DomainMismatchError,
    InvalidPartitionError,
    MissingMappingError,
    Partition,
    QifError,
    block_count,
    bottom,
    join,
    kernel,
    leq,
    meet,
    top,
)

__version__ = "0.1.0"
