"""Exception types and the bit-stream check shared across the package."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value or malformed parameter file."""


class FramingError(ValueError):
    """Signal or coded stream length inconsistent with the declared framing."""


class DecodeFailure(Exception):
    """Block decoder detected an uncorrectable error pattern."""


class RoutingError(RuntimeError):
    """Greedy forwarding could not make progress toward the sink."""


def as_bits(bits) -> np.ndarray:
    """``bits`` as a uint8 array; ValueError unless it is a nonempty 1-d
    sequence of 0s and 1s."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size == 0:
        raise ValueError("bit sequence must not be empty")
    if arr.dtype != np.uint8 and np.all((arr == 0) | (arr == 1)):
        arr = arr.astype(np.uint8)
    if arr.dtype != np.uint8 or arr.max() > 1:
        raise ValueError("bit sequence may only contain 0s and 1s")
    return arr
