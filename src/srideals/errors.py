"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded one of the configurable size caps."""


def over_cap(what: str, value, name: str, limit: int, hint: str = "") -> ResourceLimitError:
    """The one builder of cap errors: `what` = `value` is above the constant `name` = `limit`."""
    if type(value) is int and value.bit_length() > 1024:  # no int-str limit is below 640 digits
        value = f"an integer of {value.bit_length():,} bits"
    message = f"{what} = {value} exceeds {name} = {limit:,}"
    return ResourceLimitError(f"{message} ({hint})" if hint else message)


def not_iterable(what: str, value) -> DomainError:
    """The error for a `value` that should be an iterable of `what`."""
    return DomainError(f"expected an iterable of {what}, got {value!r}")
