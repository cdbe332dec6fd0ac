"""The per-cell column parser that prepare() used before numeric columns were
parsed in one numpy pass, kept unchanged as the oracle for that fast path."""

import numpy as np

from privids.errors import DataValidationError


def parse_feature_column(name: str, raw: list[str]):
    """Return (float array, None) for a numeric column or (codes, encoding)
    for a nominal one. A column mixing numeric and non-numeric cells is a hard
    error: silently dropping rows would corrupt every downstream row count."""
    values = np.empty(len(raw), dtype=float)
    n_parseable = 0
    first_unparseable = None
    first_nonfinite = None
    for i, s in enumerate(raw):
        try:
            v = float(s)
        except ValueError:
            v = np.nan
            if first_unparseable is None:
                first_unparseable = (i, s)
        else:
            n_parseable += 1
            if not np.isfinite(v) and first_nonfinite is None:
                first_nonfinite = (i, s)
        values[i] = v
    if n_parseable == len(raw):
        if first_nonfinite is not None:
            i, s = first_nonfinite
            raise DataValidationError(
                f"column '{name}', row {i + 1}: non-finite value {s!r}"
            )
        return values, None
    if n_parseable == 0 and raw:
        encoding: dict[str, int] = {}
        codes = np.empty(len(raw), dtype=float)
        for i, s in enumerate(raw):
            if s not in encoding:
                encoding[s] = len(encoding)
            codes[i] = encoding[s]
        return codes, encoding
    i, s = first_unparseable
    raise DataValidationError(
        f"column '{name}', row {i + 1}: cannot parse {s!r} as a number"
    )
