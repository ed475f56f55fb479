#!/usr/bin/env python
"""Regenerate docs/api.md from the package docstrings.

Run from the repository root::

    PYTHONPATH=src python scripts/gen_api_index.py

``tests/test_api_index.py`` fails when ``render()`` and the committed
file differ, so regenerate after changing a public docstring.
"""

import importlib
import inspect
import os
import pkgutil

import repro

API_INDEX = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs", "api.md")

HEADER = [
    "# API index",
    "",
    "Generated from the package docstrings "
    "(first line of each public item). The authoritative reference is the "
    "docstrings themselves; this index is for orientation. Regenerate "
    "with ``python scripts/gen_api_index.py``.",
    "",
    "Stability notes:",
    "",
    "- Custom ``CloudStateProvider`` subclasses declare a class-level "
    "``probes`` table of ``(root, probe method)`` pairs (probe methods "
    "take ``(token, item_id, cache)``) and inherit the one ``bindings`` "
    "loop; ``bindings``/``context`` take ``roots=`` (``None`` probes "
    "everything).",
    "- Verdicts serialize through one versioned wire schema "
    "(``repro.core.verdict_schema``, ``schema_version: 2``) shared by "
    "``MonitorVerdict.to_dict``, the audit log, and the JSON exporter; "
    "version-1 rows still load, newer versions are rejected.",
    "",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0] if doc else ""


def render() -> str:
    """The text of docs/api.md for the package as imported."""
    lines = list(HEADER)
    modules = sorted(
        module.name for module in
        pkgutil.walk_packages(repro.__path__, prefix="repro."))
    for module_name in modules:
        module = importlib.import_module(module_name)
        lines.append(f"## `{module_name}`")
        lines.append("")
        summary = first_line(module)
        if summary:
            lines.append(summary)
            lines.append("")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj):
                lines.append(f"- **class `{name}`** — {first_line(obj)}")
                for method_name, method in sorted(vars(obj).items()):
                    if method_name.startswith("_"):
                        continue
                    if callable(method) or isinstance(method, property):
                        target = (method.fget if isinstance(method, property)
                                  else method)
                        doc = first_line(target)
                        if doc:
                            lines.append(f"  - `{method_name}` — {doc}")
            elif inspect.isfunction(obj):
                lines.append(f"- `{name}()` — {first_line(obj)}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main() -> None:
    text = render()
    with open(API_INDEX, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote docs/api.md ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
