"""Exception types shared across the package, the JSON-type check of
config records, and the CLI exit-code mapping."""

from __future__ import annotations

import json
import math

__all__ = [
    "ArgumentError",
    "ModelEvaluationError",
    "PositiveDefinitenessError",
    "CapabilityError",
    "ConvergenceError",
    "InsufficientSamplingError",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_CONVERGENCE",
    "EXIT_CAPABILITY",
    "exit_code_for",
    "check_keys",
    "check_json_types",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_CAPABILITY = 4


class ArgumentError(ValueError):
    """Invalid argument or configuration value."""


class ModelEvaluationError(ValueError):
    """A model coefficient produced a non-finite value."""


class PositiveDefinitenessError(ValueError):
    """A matrix fails the rule of diffusion.positive_definite."""


class CapabilityError(NotImplementedError):
    """The requested combination is outside the supported surface."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge.

    Attributes:
        best_value: the best objective value reached before giving up.
        diagnostics: solver state at termination (iterations, gradient norm).
    """

    def __init__(self, message: str, best_value: float | None = None,
                 diagnostics: dict | None = None):
        super().__init__(message)
        self.best_value = best_value
        self.diagnostics = diagnostics or {}


class InsufficientSamplingError(RuntimeError):
    """No trial produced the rare event at any sample size."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI's distinct exit codes."""
    if isinstance(exc, (ArgumentError, ModelEvaluationError,
                        PositiveDefinitenessError)):
        return EXIT_VALIDATION
    if isinstance(exc, (ConvergenceError, InsufficientSamplingError)):
        return EXIT_CONVERGENCE
    if isinstance(exc, CapabilityError):
        return EXIT_CAPABILITY
    return 1


# JSON type -> Python types of its values; "array of Ts" holds T values and
# "T or null" also holds null. A number is finite: json.load takes NaN and
# +-Infinity, which no key means.
_JSON_TYPES = {"integer": int, "number": (int, float), "boolean": bool,
               "string": str, "object": dict}


def check_keys(record: dict, allowed: set, where: str) -> None:
    """Raises ArgumentError unless record is an object whose keys are
    among allowed."""
    if not isinstance(record, dict):
        raise ArgumentError(f"{where} must be an object")
    unknown = set(record) - allowed
    if unknown:
        raise ArgumentError(
            f"unknown keys in {where}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def _has_type(value, json_type: str) -> bool:
    """An int is also a number; a bool is only a boolean."""
    if json_type.endswith(" or null"):
        return value is None or _has_type(value, json_type[:-len(" or null")])
    if json_type.startswith("array of "):
        item = json_type[len("array of "):-1]
        return isinstance(value, list) and all(_has_type(v, item)
                                               for v in value)
    return (isinstance(value, _JSON_TYPES[json_type])
            and isinstance(value, bool) == (json_type == "boolean")
            and (json_type != "number" or math.isfinite(value)))


def check_json_types(record: dict, types: dict, where: str) -> dict:
    """record, once its keys are among types and each value has the JSON
    type its key names there.

    Raises:
        ArgumentError: naming the first offending key as where.key.
    """
    check_keys(record, set(types), where)
    for key, value in record.items():
        if not _has_type(value, types[key]):
            raise ArgumentError(f"{where}.{key} must be of type "
                                f"{types[key]}, got {json.dumps(value)}")
    return record
