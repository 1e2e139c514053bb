#!/usr/bin/env python
"""B2B purchase-order exchange: the domain the paper's introduction motivates.

Simulates two trading partners:

* the **seller side** publishes a purchase-order document schema generated
  from a core-components model (built on the full CCTS 2.01 approved CDT
  catalog),
* the **buyer side** receives the schemas, produces an order message and
  has it validated -- then sends a malformed one (wrong currency code,
  missing buyer party) and watches it bounce.

This demonstrates the paper's central claim: the *model* is the single
source of truth, the transfer syntax (XSD here) is derived, and validation
of exchanged messages falls out of the pipeline.

Run with ``python examples/ecommerce_order.py [output-directory]``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import SchemaGenerator, validate_model
from repro.catalog import build_ecommerce_model
from repro.instances import InstanceGenerator
from repro.xsd.validator import SchemaSet, validate_instance
from repro.xsdgen import GenerationOptions


def seller_publishes(out_dir: Path) -> Path:
    """The seller generates and publishes the order schemas."""
    ecommerce = build_ecommerce_model()
    report = validate_model(ecommerce.model)
    print(f"seller: model validation -> {report.summary()}")
    options = GenerationOptions(annotated=True, target_directory=out_dir)
    generator = SchemaGenerator(ecommerce.model, options)
    result = generator.generate(ecommerce.doc_library, root="PurchaseOrder")
    print(f"seller: published {len(result.schemas)} schema(s) to {out_dir}")
    return out_dir


def _child(message, name):
    """The first child element of ``message`` with the local name ``name``."""
    return next(child for child in message.element_children if child.tag.rpartition(":")[2] == name)


def buyer_sends(schema_dir: Path) -> int:
    """The buyer loads the published schemas and exchanges messages."""
    schema_set = SchemaSet.from_directory(schema_dir)
    print(f"buyer: loaded schemas for {len(schema_set.namespaces)} namespace(s)")
    instances = InstanceGenerator(schema_set)

    order = instances.generate("PurchaseOrder")
    problems = validate_instance(schema_set, order)
    print(f"buyer: well-formed order -> {len(problems)} problem(s)")
    if problems:
        return 1

    bad_currency = instances.generate("PurchaseOrder")
    _child(bad_currency, "Currency").children = ["BTC"]
    problems = validate_instance(schema_set, bad_currency)
    print(f"buyer: order paying in BTC -> rejected with {len(problems)} problem(s)")
    for problem in problems:
        print(f"  {problem}")

    no_buyer = instances.generate("PurchaseOrder")
    no_buyer.children.remove(_child(no_buyer, "BuyerParty"))
    problems = validate_instance(schema_set, no_buyer)
    print(f"buyer: order without BuyerParty -> rejected with {len(problems)} problem(s)")
    for problem in problems:
        print(f"  {problem}")
    return 0


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="order-"))
    seller_publishes(out_dir)
    return buyer_sends(out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
