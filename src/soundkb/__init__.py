"""soundkb: mine sound concepts from text and relate them to acoustic scenes."""

__version__ = "0.1.0"


class DataError(ValueError):
    """An input file or its content is malformed or inconsistent.

    Readers and validators raise it (or a subclass) for bad input; the
    command line reports it and exits 2.  Any other exception is a bug.
    """


def content_lines(lines):
    """``(line number, line)`` for each line that holds data: not blank
    (whitespace only) and not a comment (first character ``#``)."""
    for line_no, line in enumerate(lines, 1):
        if line.strip() and not line.startswith("#"):
            yield line_no, line


def rounded(values: list[float]) -> list[float]:
    """``values`` at the 9 significant digits a model file keeps, rounded in
    one ``'%.9g'`` pass."""
    return list(map(float, (("%.9g " * len(values)) % tuple(values)).split()))


def read_model(source, fmt: str, version: int, what: str) -> dict:
    """The JSON object of a model file, read from a text stream or its lines.

    Raises ``DataError``, naming the model as ``what``, unless the text is
    JSON, the object's ``format`` is ``fmt`` and its ``version`` is the
    integer ``version``, and every integer in it fits a float.
    """
    import json

    def integer(digits: str) -> int:
        try:
            value = int(digits)
            float(value)
        except (ValueError, OverflowError):
            raise DataError(f"{what} has an integer of {len(digits)} characters, "
                            "too large for a float") from None
        return value

    text = source.read() if hasattr(source, "read") else "".join(source)
    try:
        doc = json.loads(text, parse_int=integer)
    except json.JSONDecodeError as err:
        raise DataError(f"{what} is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise DataError(f"not a {what} file")
    found = doc.get("version")
    if type(found) is not int or found != version:
        raise DataError(f"unsupported {what} version {found!r}")
    return doc


def model_array(doc: dict, name: str, shape: tuple, what: str):
    """``doc[name]`` as a float64 array of ``shape`` (1-d or 2-d).

    Raises ``DataError``, naming the model as ``what``, unless the entry is
    there, holds only JSON numbers in lists nested as ``shape`` says, has
    that shape, and is finite.
    """
    import numpy as np

    if name not in doc:
        raise DataError(f"{what} has no {name!r} array")
    value = doc[name]
    rows = value if len(shape) == 2 and isinstance(value, list) else [value]
    if not all(isinstance(row, list) and set(map(type, row)) <= {int, float} for row in rows):
        raise DataError(f"{what} array {name!r} is not a {len(shape)}-d array of JSON numbers")
    try:
        array = np.array(value, dtype=np.float64)
    except ValueError as err:  # rows of different lengths
        raise DataError(f"{what} array {name!r} is not a numeric array: {err}") from None
    if array.shape != shape:
        raise DataError(f"{what} array {name!r} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise DataError(f"{what} array {name!r} has non-finite weights")
    return array
