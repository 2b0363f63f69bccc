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
