"""Block-spin renormalization of stabilizer codes as concatenated decoding."""

import importlib

from . import _numpy  # noqa: F401  (a missing numpy fails here, not on first use)

__version__ = "0.1.0"

# re-exports, each loading its module on first access (PEP 562)
_EXPORTS = {
    "Pauli": "pauli",
    "StabilizerGroup": "pauli",
    "StabilizerCode": "codes",
    "five_qubit_code": "codes",
    "PauliChannel": "channel",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
