"""Quasigroup-based pseudorandom byte streams, a KISS baseline, and a
chi-square randomness battery."""

from .battery import (
    BitMatrix,
    InsufficientInput,
    TestResult,
    binary_rank_test,
    chisq_cdf,
    frequency_test,
    gf2_rank,
    permutation_test,
    rank_class_probabilities,
    run_battery,
)
from .engine import (
    ConstantShift,
    Engine,
    GeneratorConfig,
    OrderTooLargeForBytes,
    OutputMap,
    VariableShift,
    generate,
)
from .kiss import Kiss
from .latin import (
    DuplicateInColumn,
    DuplicateInRow,
    LatinSquare,
    LatinSquareError,
    NotSquare,
    OrderTooSmall,
    ParseError,
    SymbolOutOfRange,
    parse_text,
    random_latin_square,
    to_text,
    validate,
)

__all__ = [
    "BitMatrix",
    "ConstantShift",
    "DuplicateInColumn",
    "DuplicateInRow",
    "Engine",
    "GeneratorConfig",
    "InsufficientInput",
    "Kiss",
    "LatinSquare",
    "LatinSquareError",
    "NotSquare",
    "OrderTooLargeForBytes",
    "OrderTooSmall",
    "OutputMap",
    "ParseError",
    "SymbolOutOfRange",
    "TestResult",
    "VariableShift",
    "binary_rank_test",
    "chisq_cdf",
    "frequency_test",
    "generate",
    "gf2_rank",
    "parse_text",
    "permutation_test",
    "random_latin_square",
    "rank_class_probabilities",
    "run_battery",
    "to_text",
    "validate",
]

__version__ = "0.1.0"
