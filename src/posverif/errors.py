"""Exception types shared across the package, in three families:
ConfigInvalid for a run parameter, name or combination that the code
cannot run (each parameter checked once, by the object that owns it);
MalformedMessage for wire bytes that do not decode; the rest for misuse
of the simulator, such as a register outside a party's grant."""


class PosverifError(Exception):
    """Base class for all package errors."""


class CapacityExceeded(PosverifError):
    """A state would hold more qubits than the dense engine allows."""


class DuplicateRegister(PosverifError):
    pass


class UnknownRegister(PosverifError):
    pass


class LengthMismatch(PosverifError):
    pass


class MalformedMessage(PosverifError, ValueError):
    """Wire bytes that do not decode: truncated, overrun, trailing or out of range."""


class WrongStateShape(PosverifError):
    """State registers do not match what the operation expects."""


class RegisterViolation(PosverifError):
    """A scoped party touched a register outside its grant."""


class SimulationStarted(PosverifError):
    """Structural change attempted after the event loop began."""


class ConfigInvalid(PosverifError, ValueError):
    """A run parameter, name or combination the code cannot run."""


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """Return value if it is an int in [low, high] (high None: no bound),
    else raise ConfigInvalid; a bool gets the range wording."""
    if not isinstance(value, int):
        raise ConfigInvalid(f"{what} must be an int, got {value!r}")
    if not isinstance(value, bool) and low <= value and (high is None or value <= high):
        return value
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ConfigInvalid(f"{what} must be {bounds}, got {value!r}")
