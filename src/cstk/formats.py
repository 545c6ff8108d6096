"""Lossless text formatting and parsing of the values the CLI exchanges.

Complex numbers are written `a+bi` with 17 significant digits so that a
round-trip through text is exact.
"""

from __future__ import annotations

import re
from pathlib import Path

__all__ = ["format_real", "format_complex", "parse_complex", "read_data"]

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?\s*$"
)
_PURE_IM_RE = re.compile(r"^\s*(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$")


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    """Parse `a+bi`, `a`, or `bi` (also accepts python-style `a+bj`)."""
    text = text.strip().replace("j", "i")
    m = _PURE_IM_RE.match(text)
    if m:
        return complex(0.0, float(m.group("im")))
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse complex number from {text!r}")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def read_data(path, fields) -> tuple[dict, list[list[str]]]:
    """The `key=value` words of the `#` lines before the first data line, and the whitespace-split
    fields of each data line; blank lines and later `#` lines (an np.savetxt footer) are skipped.
    ``fields``, the field count of a data line, may be a function of the header, called at the
    first data line; a line with another count raises ValueError quoting it."""
    header, rows = {}, []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line.startswith("#") and not rows:
            header.update(word.split("=", 1) for word in line[1:].split() if "=" in word)
        elif line and not line.startswith("#"):
            fields = fields if isinstance(fields, int) else fields(header)  # the header is complete here
            parts = line.split()
            if len(parts) != fields:
                raise ValueError(f"a data line of {path} must hold {fields} field(s): {raw!r}")
            rows.append(parts)
    return header, rows
