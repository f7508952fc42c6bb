"""Shared error types, and the seed check every config shares.

ConfigError: a caller-supplied configuration value is out of range or inconsistent.
ContractError: a runtime precondition was violated (bad distribution, empty tape, ...).
ShapeError: operand shapes do not conform for a primitive.
"""

from numbers import Integral


class ConfigError(ValueError):
    pass


class ContractError(ValueError):
    pass


class ShapeError(ValueError):
    pass


def check_seed(seed, what: str = "seed") -> None:
    """Reject a seed that is not a non-negative integer (a bool or a string is not one)
    when a config is built, rather than in numpy once the run first draws."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {seed!r}")
