#!/usr/bin/env python
"""The paper's worked example, end to end (Figures 4-8).

Reproduces the full EasyBiz EB005-HoardingPermit scenario:

1. build the Figure-4 model (all seven packages + LocalLawAggregates),
2. print the tree view (the left hand side of Figure 4),
3. validate the model with the rule engine,
4. generate the schemas the paper shows in Figures 6-8 and write them to
   disk with the NDR folder/file layout,
5. round-trip the model through XMI (the registry/exchange format),
6. produce a hoarding-permit message and validate it -- plus one broken
   message to show the validator rejecting it.

Run with ``python examples/hoarding_permit.py [output-directory]``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import SchemaGenerator, validate_model
from repro.catalog import build_easybiz_model
from repro.ccts.model import CctsModel
from repro.instances import InstanceGenerator
from repro.uml.visitor import census, render_tree
from repro.xmi import read_xmi, write_xmi
from repro.xsd.validator import validate_instance
from repro.xsdgen import GenerationOptions


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="easybiz-"))
    easybiz = build_easybiz_model()

    print("=== Tree view (Figure 4, left hand side) ===")
    print(render_tree(easybiz.model.model))
    print()
    print("=== Stereotype census ===")
    for stereotype, count in census(easybiz.model.model).items():
        print(f"  {stereotype:12} {count}")

    print()
    print("=== Validation ===")
    report = validate_model(easybiz.model)
    print(report.summary())
    for diagnostic in report.diagnostics:
        print(f"  {diagnostic}")
    if not report.ok:
        return 1

    print()
    print("=== Schema generation (Figures 6-8) ===")
    options = GenerationOptions(annotated=False, target_directory=out_dir)
    generator = SchemaGenerator(easybiz.model, options)
    result = generator.generate(easybiz.doc_library, root="HoardingPermit")
    for urn, generated in sorted(result.schemas.items()):
        print(f"  {urn}")
        print(f"    -> {out_dir / generated.namespace.folder / generated.namespace.file_name}")
    print()
    print(result.root.to_string())

    print("=== XMI round trip ===")
    xmi_path = out_dir / "easybiz.xmi"
    text = write_xmi(easybiz.model.model, xmi_path)
    reloaded = CctsModel(model=read_xmi(text))
    regenerated = SchemaGenerator(reloaded).generate(
        reloaded.library_named("EB005-HoardingPermit"), root="HoardingPermit"
    )
    identical = regenerated.root.to_string() == result.root.to_string()
    print(f"  wrote {xmi_path} ({len(text)} bytes); regenerated schema identical: {identical}")

    print()
    print("=== Instance validation ===")
    schema_set = result.schema_set()
    instances = InstanceGenerator(schema_set)
    message = instances.generate("HoardingPermit")
    problems = validate_instance(schema_set, message)
    print(f"  valid message: {len(problems)} problem(s)")
    broken = instances.generate("HoardingPermit")
    broken.children = [child for child in broken.element_children
                       if child.tag.rpartition(":")[2] != "IncludedRegistration"]
    problems = validate_instance(schema_set, broken)
    print(f"  message without IncludedRegistration: {len(problems)} problem(s)")
    for problem in problems:
        print(f"    {problem}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
