"""Exception types shared across the package."""


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


class InvalidN(PosverifError):
    pass


class KTooLarge(PosverifError):
    pass


class NotClassicalTape(PosverifError):
    """Compiler input keeps quantum state on the far side."""


class InvalidTrials(PosverifError):
    pass


class SimulationStarted(PosverifError):
    """Structural change attempted after the event loop began."""


class ConfigInvalid(PosverifError):
    pass


class UnknownStrategy(PosverifError):
    pass


class UnknownAttack(PosverifError):
    pass
