"""The one CSV format the package writes."""
from __future__ import annotations

import numpy as np


def _quoted(text: str) -> str:
    """A text cell as RFC 4180 writes it: quoted, with its quotes doubled,
    when it holds a comma, a quote or a line break; unchanged otherwise."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: list[str], rows, footer: str = "") -> None:
    """A line of column names, one line per row with each number as %.12g
    (a first column of str labels as text), and a footer line if given."""
    table = np.array(rows, object).reshape(-1, len(header))
    fmt = ["%.12g"] * len(header)
    if table.size and isinstance(table[0, 0], str):
        fmt[0] = "%s"
        table[:, 0] = [_quoted(label) for label in table[:, 0]]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header),
               footer=footer, comments="")
