"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded one of the configurable size caps."""


def over_cap(what: str, value, name: str, cap: int, hint: str = "") -> ResourceLimitError:
    """The one builder of cap errors: `what` = `value` is above the constant `name` = `cap`."""
    message = f"{what} = {value} exceeds {name} = {cap:,}"
    return ResourceLimitError(f"{message} ({hint})" if hint else message)
