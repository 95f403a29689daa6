"""Generated documentation: the formula ledger.

The ledger rows come from the same registry the size analytics use, so the
table can never drift from the code.  Prose guides live as static files under
docs/.
"""

from __future__ import annotations

from .formulas import registry


def formula_ledger() -> str:
    """Markdown table with one row per registered closed form."""
    lines = [
        "# Formula ledger",
        "",
        "Size formulas implemented by `cardnet.formulas`, their domains, and",
        "their verification status against freshly built networks.",
        "",
        "| name | kind | domain | formula | status |",
        "|---|---|---|---|---|",
    ]
    for name, info in registry().items():
        if info.check is None:
            status = "not checked"
        else:
            status = "pass" if info.check() else "FAIL"
        lines.append(f"| {name} | {info.kind} | {info.domain} | `{info.text}` | {status} |")
    return "\n".join(lines) + "\n"
