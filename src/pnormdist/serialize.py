"""Deterministic text serialization for CSV and JSON outputs.

All floats are printed with 17 significant digits so that emitted files
round-trip exactly through IEEE doubles: re-reading a file and re-emitting
it reproduces the bytes. Non-finite floats are emitted as the strings
"inf"/"-inf"/"nan" (valid JSON, stable round trip).
"""

import json

import numpy as np


def fmt_float(x) -> str:
    """Format a float with 17 significant digits (exact double round trip).

    Python's format already writes every nan as "nan" and the infinities as
    "inf" and "-inf".
    """
    return format(float(x), ".17g")


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        s = fmt_float(obj)
        if s in ("inf", "-inf", "nan"):
            out.append(json.dumps(s))
        else:
            out.append(s)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)}")
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
    """Serialize to compact JSON with 17-significant-digit floats."""
    out = []
    _emit(obj, out)
    return "".join(out)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
