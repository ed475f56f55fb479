"""``docs/api.md`` is exactly what ``scripts/gen_api_index.py`` renders.

A public docstring or name that changes without a regenerated index
fails here; fix it with ``PYTHONPATH=src python scripts/gen_api_index.py``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_api_index_is_current():
    spec = importlib.util.spec_from_file_location(
        "gen_api_index", ROOT / "scripts" / "gen_api_index.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert module.render() == committed
