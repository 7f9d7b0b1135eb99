"""Error taxonomy shared by the whole package, and the one rule for integers in text."""


class InvalidInputError(ValueError):
    """A precondition on the mathematical input is violated."""


class GuardExceededError(RuntimeError):
    """A resource guard (dimension, generator count, search width) was exceeded."""


def parse_int(text: str, what: str = "an integer", signed: bool = False) -> int:
    """The integer written in ASCII decimal digits, after a '-' only when signed.

    int() would also take '+', surrounding spaces, '_' separators and
    non-ASCII digits; each is refused here.
    """
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        sign = " after an optional '-'" if signed else ""
        raise InvalidInputError(f"{what} must be ASCII decimal digits{sign}, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise InvalidInputError(f"cannot parse {what} {text!r}") from exc


def as_tuple(values, what: str) -> tuple:
    """tuple(values) for a constructor; a value that is not iterable is invalid input."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInputError(f"{what} must be a sequence, got {values!r}") from None
