"""Golden per-schema digests of the default seed's catalogs.

``golden.json`` maps each catalog seed of :data:`catalog.DEFAULT_SEED` to
``{schema path: sha256 of the schema text}``, where the schema path is the
``folder/file_name`` key ``upcc serve`` uses in ``/generate`` responses.
Regenerate it (only when a change to the generator is meant to alter
its output) with::

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def schema_texts(result) -> dict[str, str]:
    """``{folder/file_name: schema text}`` of a ``GenerationResult``."""
    return {
        f"{generated.namespace.folder}/{generated.namespace.file_name}": generated.to_string()
        for generated in result.schemas.values()
    }


def digests(texts: dict[str, str]) -> dict[str, str]:
    return {path: hashlib.sha256(text.encode("utf-8")).hexdigest() for path, text in texts.items()}


def load_golden() -> dict[int, dict[str, str]]:
    raw = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {int(seed): schemas for seed, schemas in raw.items()}


def main() -> None:
    from catalog import DEFAULT_SEED, build_catalog, catalog_seeds
    from repro.xsdgen import GenerationOptions, SchemaGenerator

    golden = {}
    for seed in catalog_seeds(DEFAULT_SEED):
        catalog = build_catalog(seed)
        result = SchemaGenerator(catalog.model, GenerationOptions()).generate(
            catalog.doc_library, root=catalog.root
        )
        golden[str(seed)] = digests(schema_texts(result))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
