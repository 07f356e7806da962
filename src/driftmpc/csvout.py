"""The one CSV format the package writes."""
from __future__ import annotations

import numpy as np


def write_csv(path, header: list[str], rows, footer: str = "") -> None:
    """A line of column names, one line per row with each number as %.12g
    (a first column of str labels as text), and a footer line if given."""
    table = np.array(rows, object).reshape(-1, len(header))
    fmt = ["%.12g"] * len(header)
    if table.size and isinstance(table[0, 0], str):
        fmt[0] = "%s"
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header),
               footer=footer, comments="")
