"""Deterministic text serialization: the writer of every CSV and JSON file.

All floats are printed with 17 significant digits (CELL), so a file
round-trips exactly through IEEE doubles: re-reading it and re-emitting it
reproduces the bytes. JSON quotes the non-finite floats "inf"/"-inf"/"nan"
as strings. Files are UTF-8 with LF line ends.
"""

import json

import numpy as np

CELL = "%.17g"  # 17 significant digits: the shortest width at which every double round-trips
BLOCK_CELLS = 2**16  # CSV cells formatted and written per write


def fmt_float(x) -> str:
    """`x` to 17 significant digits; any nan prints "nan", the infinities "inf" and "-inf"."""
    return CELL % float(x)


def _emit(obj, out):
    if obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        s = fmt_float(obj)
        out.append(json.dumps(s) if s in ("inf", "-inf", "nan") else s)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(np.asarray(obj).tolist() if isinstance(obj, np.ndarray) else obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"not JSON-serializable: {type(obj)}")


def dumps(obj) -> str:
    """Serialize to compact JSON with 17-significant-digit floats; dict keys must be str."""
    out = []
    _emit(obj, out)
    return "".join(out)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def write_csv(path, table, header=None) -> None:
    """A 2-d table of floats as CSV, under the column names in `header` when given.

    An int cell prints as its digits. Rows are formatted and written
    BLOCK_CELLS cells at a time, so the file's text is never held whole.
    """
    cells = np.asarray(table, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        if cells.size:
            line = ",".join([CELL] * cells.shape[1]) + "\n"
            rows = max(1, BLOCK_CELLS // cells.shape[1])
            for start in range(0, cells.shape[0], rows):
                block = cells[start : start + rows]
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
