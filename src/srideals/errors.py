"""Exception types shared across the package, and the argument checks
that more than one module raises them from."""


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


def listed(what: str, value) -> list:
    """The items of an iterable argument; a non-iterable is a DomainError.
    Only ``iter`` is guarded, so an error raised while the items are read
    is the caller's own."""
    try:
        items = iter(value)
    except TypeError:
        raise not_iterable(what, value) from None
    return list(items)


def index_order(what: str, order, first: int, count: int) -> list | None:
    """The listed items of `order` if they are a permutation of the integers
    first, ..., first + count - 1 (bools are no indices), else None."""
    order = listed(what, order)
    if {int}.issuperset(map(type, order)) and sorted(order) == list(range(first, first + count)):
        return order
    return None
