"""Quasigroup-based pseudorandom byte streams, a KISS baseline, and a
chi-square randomness battery.

The public names load their module on first use (PEP 562), so a command
that never touches the battery or KISS never imports them.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BitMatrix", "InsufficientInput", "TestResult", "binary_rank_test",
                     "chisq_cdf", "frequency_test", "gf2_rank", "permutation_test",
                     "rank_class_probabilities", "run_battery"), "battery"),
    **dict.fromkeys(("ConstantShift", "Engine", "GeneratorConfig", "OrderTooLargeForBytes",
                     "OutputMap", "VariableShift", "generate"), "engine"),
    "Kiss": "kiss",
    **dict.fromkeys(("DuplicateInColumn", "DuplicateInRow", "LatinSquare", "LatinSquareError",
                     "NotSquare", "OrderTooSmall", "ParseError", "SymbolOutOfRange", "parse_text",
                     "random_latin_square", "to_text", "validate"), "latin"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
