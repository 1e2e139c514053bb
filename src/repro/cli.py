"""Command-line interface: the Figure-5 dialog, flattened into subcommands.

::

    upcc example easybiz --out model.xmi        # write a catalog model as XMI
    upcc inspect model.xmi                      # tree view (Figure 4, left)
    upcc validate model.xmi                     # run the validation engine
    upcc validate-xmi a.xmi b.xmi               # lenient load; located defect report
    upcc generate model.xmi --library EB005-HoardingPermit \
        --root HoardingPermit --out schemas/ --annotate
    upcc generate model.xmi --library ... --root ... --out schemas/ \
        --emit-provenance                       # + schemas/provenance.jsonl
    upcc generate model.xmi --library ... --root ... --syntax rng   # RELAX NG
    upcc generate model.xmi --library ... --root ... --out schemas/ \
        --cache-dir ~/.cache/upcc               # reuse schemas across runs
    upcc explain model.xmi --library ... --root ... \
        --target "//xsd:complexType[@name='HoardingPermitType']"
    upcc explain --schema schemas/urn_au_gov_vic_easybiz_/data_draft_EB005-HoardingPermit_0.4.xsd \
        --target 'HoardingPermitType/SafetyPrecaution'
    upcc explain model.xmi --library ... --root ... --source id_42   # inverse
    upcc instance schemas/ --root HoardingPermit --out sample.xml
    upcc check-instance schemas/ sample.xml
    upcc document model.xmi --library ... --root ... --out doc.html
    upcc diagram model.xmi [--library NAME] --out model.dot
    upcc registry store|search|list <dir> ...
    upcc reverse schemas/ --out reconstructed.xmi
    upcc diff a.xmi b.xmi
    upcc compat old-schemas/ new-schemas/
    upcc serve --port 8437 --workers 8            # warm-cache HTTP daemon
    upcc serve --port 8437 --access-log access.jsonl --slow-ms 250 \
        --slow-dir slow-traces                    # + request log, slow capture
    upcc top --url http://127.0.0.1:8437          # live serve dashboard
    upcc stats [easybiz|ecommerce] [--json]       # trace/metric report
    upcc profile easybiz --runs 10                # call-tree hot-path table
    upcc profile easybiz --profile-format collapsed \
        --profile-out easybiz.folded              # flamegraph.pl input
    upcc profile easybiz --cprofile-out funcs.txt # + function-level pstats

Observability: every subcommand accepts the global ``--trace`` flag
(print the span tree of the run to stderr) and ``--metrics-out FILE``
(write the JSON metrics snapshot); see docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.ccts.model import CctsModel
from repro.errors import ReproError, XmiError
from repro.obs import query
from repro.serve import top as serve_top
from repro.uml.visitor import render_tree
from repro.xmi import DEFAULT_MAX_DEPTH, DEFAULT_MAX_ELEMENTS, read_xmi, write_xmi


def _load_model(path: str) -> CctsModel:
    return CctsModel(model=read_xmi(Path(path).read_text(encoding="utf-8")))


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.catalog import build_easybiz_model, build_ecommerce_model, build_figure1_model

    builders = {
        "easybiz": lambda: build_easybiz_model().model,
        "figure1": lambda: build_figure1_model().model,
        "ecommerce": lambda: build_ecommerce_model().model,
    }
    model = builders[args.name]()
    text = write_xmi(model.model, args.out)
    if args.out:
        print(f"wrote {args.name} model to {args.out}")
    else:
        print(text)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    print(render_tree(model.model))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import validate_model

    model = _load_model(args.model)
    report = validate_model(model, basic_only=args.basic)
    print(report)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_validate_xmi(args: argparse.Namespace) -> int:
    from repro.xmi import load_xmi

    defects = 0
    for name in args.models:
        try:
            result = load_xmi(
                Path(name),
                strict=args.strict,
                max_elements=args.max_elements,
                max_depth=args.max_depth,
            )
        except OSError as error:
            print(f"{name}: error: {error}", file=sys.stderr)
            defects += 1
            continue
        except XmiError as error:
            location = ":".join(
                str(part) for part in (error.line, error.column) if part is not None
            )
            where = f"{name}:{location}" if location else name
            print(f"{where}: error: {error}", file=sys.stderr)
            defects += 1
            continue
        for issue in result.issues:
            location = ":".join(
                str(part) for part in (issue.line, issue.column) if part is not None
            )
            where = f"{name}:{location}" if location else name
            detail = []
            if issue.xmi_id:
                detail.append(f"xmi:id={issue.xmi_id}")
            if issue.path:
                detail.append(f"path={issue.path}")
            suffix = f" ({', '.join(detail)})" if detail else ""
            print(f"{where}: [{issue.kind}] {issue.message}{suffix}")
        defects += len(result.issues)
        if result.ok:
            model_name = result.model.name if result.model is not None else "?"
            print(f"{name}: ok (model {model_name!r})")
    if defects:
        print(f"{defects} defect(s) found across {len(args.models)} file(s)")
        return 1
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.xsdgen import GenerationOptions, SchemaGenerator

    model = _load_model(args.model)
    syntax = getattr(args, "syntax", "xsd")
    options = GenerationOptions(
        annotated=args.annotate,
        shared_aggregation_as_ref=not args.inline_aggregations,
        validate_first=not args.no_validate,
        target_directory=Path(args.out) if args.out and syntax == "xsd" else None,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        on_error="collect" if args.keep_going else "raise",
        embed_provenance=args.embed_provenance,
    )
    generator = SchemaGenerator(model, options)
    try:
        result = generator.generate(args.library, root=args.root)
    except ReproError as error:
        print(generator.session.log, file=sys.stderr)
        print(f"generation failed: {error}", file=sys.stderr)
        return 1
    print(generator.session.log)
    if result.errors:
        for failure in result.errors:
            print(f"failed: {failure}", file=sys.stderr)
        print(
            f"{len(result.errors)} library build(s) failed; "
            f"{len(result.schemas)} schema(s) generated",
            file=sys.stderr,
        )
        return 1
    if syntax == "rng":
        from repro.rngen import result_to_rng, rng_to_string

        if not args.root:
            print("error: --syntax rng requires --root", file=sys.stderr)
            return 1
        text = rng_to_string(result_to_rng(result, args.root))
        _emit(text, args.out)
    elif syntax == "rdfs":
        from repro.rngen import rdfs_to_string

        _emit(rdfs_to_string(model), args.out)
    elif not args.out:
        print(result.root.to_string())
    if args.emit_provenance:
        if args.out:
            path = result.write_provenance(Path(args.out) / "provenance.jsonl")
            print(f"wrote {len(result.provenance)} provenance record(s) to {path}")
        else:
            print(result.provenance.to_jsonl())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Answer "which UML element and NDR rule produced this construct" (or the inverse)."""
    if not args.target and not args.source:
        print("error: provide --target and/or --source", file=sys.stderr)
        return 2
    if bool(args.schema) == bool(args.model):
        print("error: provide either an XMI model or --schema", file=sys.stderr)
        return 2
    index, schema_file = _explain_index(args)
    if index is None:
        return 1
    records = []
    if args.target:
        records.extend(
            record
            for record in index.by_target(args.target)
            if schema_file is None or record.schema_file == schema_file
        )
    if args.source:
        records.extend(index.by_source(args.source))
    if not records:
        asked = " / ".join(spec for spec in (args.target, args.source) if spec)
        print(f"no provenance record matches {asked!r}")
        return 1
    for record in records:
        print(record.describe())
        print(f"  rule {record.rule}: {record.rule_text}")
    return 0


def _explain_index(args: argparse.Namespace):
    """The provenance index (and optional schema-file scope) for ``explain``.

    ``--schema`` reads embedded appinfo records first and falls back to a
    ``provenance.jsonl`` sidecar (``--provenance``, or searched in the
    schema's parent directories).  A model file regenerates instead.
    """
    from repro.xsdgen.provenance import ProvenanceIndex, records_from_schema_text

    if args.schema:
        schema_path = Path(args.schema)
        schema_file = f"{schema_path.parent.name}/{schema_path.name}"
        try:
            schema_text = schema_path.read_text(encoding="utf-8")
        except OSError as error:
            print(f"error: cannot read {args.schema}: {error}", file=sys.stderr)
            return None, None
        records = records_from_schema_text(schema_text)
        if records:
            return ProvenanceIndex(records), schema_file
        sidecar = Path(args.provenance) if args.provenance else None
        if sidecar is None:
            for directory in (schema_path.parent, schema_path.parent.parent):
                candidate = directory / "provenance.jsonl"
                if candidate.is_file():
                    sidecar = candidate
                    break
        if sidecar is None or not sidecar.is_file():
            print(
                f"error: {args.schema} embeds no provenance and no "
                f"provenance.jsonl sidecar was found; generate with "
                f"--emit-provenance or --embed-provenance",
                file=sys.stderr,
            )
            return None, None
        index = ProvenanceIndex.from_jsonl(sidecar.read_text(encoding="utf-8"))
        return index, schema_file
    if not args.library:
        print("error: explaining from a model requires --library", file=sys.stderr)
        return None, None
    from repro.xsdgen import GenerationOptions, SchemaGenerator

    model = _load_model(args.model)
    generator = SchemaGenerator(model, GenerationOptions(validate_first=False))
    result = generator.generate(args.library, root=args.root)
    return result.provenance, None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_instance(args: argparse.Namespace) -> int:
    from repro.instances import InstanceGenerator
    from repro.xsd.validator import SchemaSet

    schema_set = SchemaSet.from_directory(args.schemas)
    generator = InstanceGenerator(schema_set, fill_optional=not args.minimal)
    text = generator.generate_string(args.root)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote instance to {args.out}")
    else:
        print(text)
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.registry import Registry

    registry = Registry(args.directory)
    if args.registry_command == "store":
        registry.store(args.name, _load_model(args.model), overwrite=args.overwrite)
        print(f"stored {args.name!r} in {args.directory}")
        return 0
    if args.registry_command == "search":
        hits = registry.search(args.term)
        for model_name, den in hits:
            print(f"[{model_name}] {den}")
        print(f"{len(hits)} hit(s)")
        return 0
    for entry in registry.entries():  # list
        print(f"{entry.name}: {len(entry.libraries)} libraries, "
              f"{len(entry.dictionary_entries)} dictionary entries")
        for library in entry.libraries:
            print(f"  {library['kind']} {library['name']} v{library['version']}")
    return 0


def _cmd_document(args: argparse.Namespace) -> int:
    from repro.xsdgen import GenerationOptions, SchemaGenerator, write_documentation

    model = _load_model(args.model)
    options = GenerationOptions(annotated=True)
    generator = SchemaGenerator(model, options)
    try:
        result = generator.generate(args.library, root=args.root)
    except ReproError as error:
        print(f"generation failed: {error}", file=sys.stderr)
        return 1
    path = write_documentation(result, args.out, title=args.title or f"{args.library} documentation")
    print(f"wrote {path}")
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    from repro.uml.diagram import model_to_dot, package_to_dot

    model = _load_model(args.model)
    if args.library:
        library = model.library_named(args.library)
        dot = package_to_dot(library.package, args.library.replace("-", "_"))
    else:
        dot = model_to_dot(model.model)
    _emit(dot, args.out)
    return 0


def _cmd_reverse(args: argparse.Namespace) -> int:
    from repro.reverse import reverse_engineer
    from repro.validation import validate_model
    from repro.xsd.validator import SchemaSet

    schema_set = SchemaSet.from_directory(args.schemas)
    report = reverse_engineer(schema_set)
    print(f"reconstructed {len(report.model.libraries())} libraries")
    for note in report.notes:
        print(f"note: {note}")
    if report.doc_library_names:
        print(f"document libraries: {', '.join(report.doc_library_names)} "
              f"(roots: {', '.join(report.root_elements)})")
    validation = validate_model(report.model)
    print(validation.summary())
    write_xmi(report.model.model, args.out)
    print(f"wrote reconstructed model to {args.out}")
    return 0 if validation.ok else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.interchange import diff_models

    differences = diff_models(_load_model(args.first), _load_model(args.second))
    for difference in differences:
        print(difference)
    print(f"{len(differences)} difference(s)")
    return 0 if not differences else 1


def _cmd_compat(args: argparse.Namespace) -> int:
    from repro.xsd.compat import check_compatibility
    from repro.xsd.validator import SchemaSet

    old = SchemaSet.from_directory(args.old)
    new = SchemaSet.from_directory(args.new)
    report = check_compatibility(old, new)
    for change in report.changes:
        print(change)
    if report.is_backward_compatible:
        print(f"backward compatible ({len(report.compatible)} compatible change(s))")
        return 0
    print(f"NOT backward compatible: {len(report.breaking)} breaking change(s)")
    return 1


#: Catalog models the report subcommands (``stats``, ``profile``) can run.
_REPORT_CATALOGS = {
    "easybiz": "HoardingPermit",
    "ecommerce": "PurchaseOrder",
}


def _report_catalog(name: str):
    """(root element name, built catalog) for a report subcommand."""
    from repro.catalog import build_easybiz_model, build_ecommerce_model

    builders = {"easybiz": build_easybiz_model, "ecommerce": build_ecommerce_model}
    return _REPORT_CATALOGS[name], builders[name]()


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a catalog generation under tracing and print the obs report."""
    import json

    import repro.obs as obs
    from repro.validation import validate_model
    from repro.xsdgen import SchemaGenerator

    root, catalog = _report_catalog(args.name)
    tracer = obs.configure(trace=True, reset_metrics=True)
    generator = SchemaGenerator(catalog.model)
    for _ in range(max(1, args.runs)):
        result = generator.generate(catalog.doc_library, root=root)
    report = validate_model(catalog.model)
    coverage = result.coverage()
    if args.json:
        payload = {
            "model": args.name,
            "runs": max(1, args.runs),
            "schemas": len(result.schemas),
            "validation": {
                "ok": report.ok,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
            },
            "coverage": {
                "total_elements": coverage.total_elements,
                "mapped": coverage.mapped,
                "unmapped": [list(pair) for pair in coverage.unmapped],
            },
            "metrics": obs.get_metrics().snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"model: {args.name} ({len(result.schemas)} schema(s), "
          f"{report.summary()})")
    print()
    print("== provenance coverage ==")
    print(coverage.render_text())
    print()
    print("== span tree ==")
    print(tracer.render_tree())
    print()
    print("== metrics ==")
    print(obs.get_metrics().render_text())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Repeat a catalog generation under tracing; emit the call-tree profile."""
    import repro.obs as obs
    from repro.obs.prof import cprofile_session, cprofile_stats_text, profile_from_tracer
    from repro.xsdgen import GenerationOptions, SchemaGenerator

    root, catalog = _report_catalog(args.name)
    tracer = obs.configure(trace=True, ring_capacity=8192, reset_metrics=True)
    options = GenerationOptions(validate_first=False, use_cache=args.use_cache)
    runs = max(1, args.runs)

    def run_all() -> None:
        # A fresh generator per run keeps every repetition cold (modulo
        # --use-cache), so the profile reflects full generation cost.
        for _ in range(runs):
            SchemaGenerator(catalog.model, options).generate(catalog.doc_library, root=root)

    profiler = None
    if args.cprofile_out:
        with cprofile_session() as profiler:
            run_all()
    else:
        run_all()
    profile = profile_from_tracer(tracer)
    text = profile.render(args.profile_format, top=args.top)
    if args.profile_out:
        Path(args.profile_out).write_text(text + "\n", encoding="utf-8")
        print(
            f"wrote {args.profile_format} profile ({profile.span_count} span(s), "
            f"{len(profile.nodes)} path(s)) to {args.profile_out}"
        )
    else:
        print(text)
    if args.cprofile_out:
        stats_text = cprofile_stats_text(profiler, top=args.top)
        if args.cprofile_out == "-":
            print(stats_text)
        else:
            Path(args.cprofile_out).write_text(stats_text, encoding="utf-8")
            print(f"wrote cProfile report to {args.cprofile_out}")
    return 0


def _cmd_check_instance(args: argparse.Namespace) -> int:
    from repro.instances.pipeline import ValidationPipeline
    from repro.xsd.validator import SchemaSet

    schema_set = SchemaSet.from_directory(args.schemas)
    report = ValidationPipeline(schema_set).validate_path(args.instance)
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return 1
    if report.ok:
        print("instance is valid")
        return 0
    for problem in report.problems:
        print(problem)
    print(f"{len(report.problems)} problem(s)")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the warm-cache HTTP daemon until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.serve import ServeApp, ServeConfig, UpccServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        queue_size=max(1, args.queue_size),
        timeout_s=args.timeout,
        drain_timeout_s=args.drain_timeout,
        access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        access_log_keep=max(1, args.access_log_keep),
        slow_ms=args.slow_ms,
        slow_dir=args.slow_dir,
        slow_keep=max(1, args.slow_keep),
        slo_file=args.slo,
        alert_log=args.alert_log,
    )
    server = UpccServer(ServeApp(cache_dir=args.cache_dir), config)
    server.start()
    print(f"listening on {server.url}", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: stop.set())
    stop.wait()
    print("draining...", flush=True)
    clean = server.drain()
    print(f"drained {'cleanly' if clean else 'with leftovers'}", flush=True)
    return 0 if clean else 1


def _cmd_validate_instances(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.instances.pipeline import ValidationPipeline
    from repro.xsd.validator import SchemaSet

    schemas = Path(args.schemas)
    if schemas.is_dir():
        schema_set = SchemaSet.from_directory(schemas)
    else:
        schema_set = SchemaSet.from_files([schemas])
    pipeline = ValidationPipeline(schema_set, fail_fast=args.fail_fast)
    report = pipeline.run(args.corpus)
    if args.report == "json":
        print(json_module.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="upcc",
        description="UML Profile for Core Components: modeling, validation and XSD generation",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace the run and print the span tree to stderr afterwards",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the JSON metrics snapshot of the run to FILE",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    example = commands.add_parser("example", help="write a catalog model as XMI")
    example.add_argument("name", choices=["easybiz", "figure1", "ecommerce"])
    example.add_argument("--out", help="output XMI file (stdout when omitted)")
    example.set_defaults(func=_cmd_example)

    inspect = commands.add_parser("inspect", help="print the model tree view")
    inspect.add_argument("model", help="XMI model file")
    inspect.set_defaults(func=_cmd_inspect)

    validate = commands.add_parser("validate", help="run the validation engine")
    validate.add_argument("model", help="XMI model file")
    validate.add_argument("--basic", action="store_true", help="run only the basic rule set")
    validate.set_defaults(func=_cmd_validate)

    validate_xmi = commands.add_parser(
        "validate-xmi",
        help="load XMI files leniently and print a located defect report",
    )
    validate_xmi.add_argument("models", nargs="+", help="XMI model files")
    validate_xmi.add_argument(
        "--strict",
        action="store_true",
        help="stop at the first defect (fail-fast) instead of collecting all of them",
    )
    validate_xmi.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_MAX_ELEMENTS,
        metavar="N",
        help=f"refuse documents with more than N model elements (default {DEFAULT_MAX_ELEMENTS})",
    )
    validate_xmi.add_argument(
        "--max-depth",
        type=int,
        default=DEFAULT_MAX_DEPTH,
        metavar="N",
        help=f"refuse package trees nested deeper than N levels (default {DEFAULT_MAX_DEPTH})",
    )
    validate_xmi.set_defaults(func=_cmd_validate_xmi)

    generate = commands.add_parser("generate", help="generate XSD schemas from a library")
    generate.add_argument("model", help="XMI model file")
    generate.add_argument("--library", required=True, help="library name to generate from")
    generate.add_argument("--root", help="root ABIE for DOCLibrary generation")
    generate.add_argument("--out", help="output directory (stdout when omitted)")
    generate.add_argument("--annotate", action="store_true", help="emit CCTS annotations")
    generate.add_argument(
        "--inline-aggregations",
        action="store_true",
        help="inline shared-aggregation ASBIEs instead of global element + ref",
    )
    generate.add_argument("--no-validate", action="store_true", help="skip pre-generation validation")
    generate.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the generation cache to DIR so later runs can reuse "
        "schemas across processes (keyed by a structural fingerprint of "
        "each library)",
    )
    generate.add_argument(
        "--keep-going",
        action="store_true",
        help="on a library build failure, keep building independent libraries "
        "and report every failure instead of stopping at the first one",
    )
    generate.add_argument(
        "--syntax",
        choices=["xsd", "rng", "rdfs"],
        default="xsd",
        help="transfer syntax: XML Schema (default), RELAX NG or RDF Schema "
        "(the paper's future-extension syntaxes)",
    )
    generate.add_argument(
        "--emit-provenance",
        action="store_true",
        help="write the provenance records as provenance.jsonl next to the "
        "generated schemas (or to stdout without --out)",
    )
    generate.add_argument(
        "--embed-provenance",
        action="store_true",
        help="embed each schema's provenance records as an "
        "xsd:annotation/xsd:appinfo block (off by default: output is then "
        "byte-identical to a provenance-unaware run)",
    )
    generate.set_defaults(func=_cmd_generate)

    explain = commands.add_parser(
        "explain",
        help="trace a generated XSD construct back to its UML source and NDR rule",
    )
    explain.add_argument(
        "model", nargs="?", help="XMI model file (regenerated to build the provenance index)"
    )
    explain.add_argument("--library", help="library name to generate from (with a model)")
    explain.add_argument("--root", help="root ABIE for DOCLibrary generation (with a model)")
    explain.add_argument(
        "--schema",
        metavar="FILE",
        help="generated .xsd file; provenance comes from its embedded appinfo "
        "block or a provenance.jsonl sidecar in its parent directories",
    )
    explain.add_argument(
        "--provenance",
        metavar="FILE",
        help="explicit provenance.jsonl sidecar (overrides the search next to --schema)",
    )
    explain.add_argument(
        "--target",
        metavar="SPEC",
        help="XSD construct to explain: \"//xsd:complexType[@name='X']\", a "
        "path like HoardingPermitType/SafetyPrecaution, or a bare name",
    )
    explain.add_argument(
        "--source",
        metavar="ELEMENT",
        help="inverse direction: list everything a UML element produced "
        "(xmi:id, qualified name, or Abie.Attribute shorthand)",
    )
    explain.set_defaults(func=_cmd_explain)

    instance = commands.add_parser("instance", help="generate a sample XML instance")
    instance.add_argument("schemas", help="directory of generated schemas")
    instance.add_argument("--root", required=True, help="global root element name")
    instance.add_argument("--out", help="output file (stdout when omitted)")
    instance.add_argument("--minimal", action="store_true", help="omit optional content")
    instance.set_defaults(func=_cmd_instance)

    validate_instances = commands.add_parser(
        "validate-instances",
        help="validate a corpus of XML instances against generated schemas",
    )
    validate_instances.add_argument(
        "schemas", help="schema directory (*.xsd, recursive) or a single .xsd file"
    )
    validate_instances.add_argument(
        "corpus",
        help="corpus directory (*.xml, recursive), a single .xml file, "
        "or a manifest file listing one document path per line",
    )
    validate_instances.add_argument(
        "--report", choices=["text", "json"], default="text", help="report format"
    )
    validate_instances.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first invalid document",
    )
    validate_instances.set_defaults(func=_cmd_validate_instances)

    serve = commands.add_parser(
        "serve",
        help="run the long-running HTTP daemon (generate/validate/explain "
        "with process-warm caches)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0,
        help="port to listen on (default 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="K",
        help="requests run at once; more wait for a slot (default 4)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="requests that may wait for a run slot; overflow is rejected "
        "with 503 + Retry-After (default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request ceiling before the client gets a 504 (default 30)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain budget on SIGTERM/SIGINT (default 10)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the generation cache to DIR (shared with "
        "'upcc generate --cache-dir')",
    )
    serve.add_argument(
        "--access-log", metavar="FILE",
        help="append one JSON line per request to FILE (method, path, "
        "status, duration, queue wait, request id, trace id)",
    )
    serve.add_argument(
        "--access-log-max-bytes", type=int, metavar="BYTES",
        help="rotate the access log once it exceeds BYTES "
        "(FILE -> FILE.1 -> ...; default unbounded)",
    )
    serve.add_argument(
        "--access-log-keep", type=int, default=3, metavar="N",
        help="rotated access-log generations to keep (default 3)",
    )
    serve.add_argument(
        "--slo", metavar="FILE",
        help="JSON file of SLO specs for burn-rate alerting "
        "(default: built-in availability + latency objectives)",
    )
    serve.add_argument(
        "--alert-log", metavar="FILE",
        help="append SLO alert transitions to FILE as JSON lines "
        "(also served by GET /alerts)",
    )
    serve.add_argument(
        "--slow-ms", type=float, metavar="MS",
        help="capture the full span tree of any request slower than MS "
        "(JSONL + Perfetto-loadable trace under --slow-dir)",
    )
    serve.add_argument(
        "--slow-dir", default="slow-traces", metavar="DIR",
        help="directory for slow-request captures (default slow-traces)",
    )
    serve.add_argument(
        "--slow-keep", type=int, default=32, metavar="N",
        help="bounded on-disk ring: keep at most N slow captures (default 32)",
    )
    serve.set_defaults(func=_cmd_serve)

    top = commands.add_parser(
        "top",
        help="live terminal dashboard for a running serve daemon "
        "(polls /stats + /metrics)",
    )
    serve_top.add_arguments(top)
    top.set_defaults(func=serve_top.run)

    obs = commands.add_parser(
        "obs",
        help="query serve telemetry artifacts offline (access logs, slow "
        "captures, alert rings)",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_query = obs_commands.add_parser(
        "query",
        help="filter access logs, slow captures, and alerts by trace id, "
        "request id, status, or time window",
    )
    query.add_arguments(obs_query)
    obs_query.set_defaults(func=query.run)

    check = commands.add_parser("check-instance", help="validate an XML instance")
    check.add_argument("schemas", help="directory of generated schemas")
    check.add_argument("instance", help="instance document to validate")
    check.set_defaults(func=_cmd_check_instance)

    registry = commands.add_parser("registry", help="store/search core-component models")
    registry_commands = registry.add_subparsers(dest="registry_command", required=True)
    store = registry_commands.add_parser("store", help="register a model")
    store.add_argument("directory", help="registry directory")
    store.add_argument("name", help="registration name")
    store.add_argument("model", help="XMI model file")
    store.add_argument("--overwrite", action="store_true")
    store.set_defaults(func=_cmd_registry)
    search = registry_commands.add_parser("search", help="search dictionary entry names")
    search.add_argument("directory", help="registry directory")
    search.add_argument("term", help="search term")
    search.set_defaults(func=_cmd_registry)
    listing = registry_commands.add_parser("list", help="list registered models")
    listing.add_argument("directory", help="registry directory")
    listing.set_defaults(func=_cmd_registry)

    document = commands.add_parser("document", help="render HTML documentation for generated schemas")
    document.add_argument("model", help="XMI model file")
    document.add_argument("--library", required=True, help="library to generate and document")
    document.add_argument("--root", help="root ABIE for DOCLibrary generation")
    document.add_argument("--out", required=True, help="output HTML file")
    document.add_argument("--title", help="page title")
    document.set_defaults(func=_cmd_document)

    diagram = commands.add_parser("diagram", help="render class diagrams as Graphviz DOT")
    diagram.add_argument("model", help="XMI model file")
    diagram.add_argument("--library", help="render only this library's package")
    diagram.add_argument("--out", help="output .dot file (stdout when omitted)")
    diagram.set_defaults(func=_cmd_diagram)

    reverse = commands.add_parser(
        "reverse", help="reverse-engineer a schema directory into an XMI model"
    )
    reverse.add_argument("schemas", help="directory of NDR schemas")
    reverse.add_argument("--out", required=True, help="output XMI file")
    reverse.set_defaults(func=_cmd_reverse)

    diff = commands.add_parser("diff", help="structurally compare two models")
    diff.add_argument("first", help="first XMI model file")
    diff.add_argument("second", help="second XMI model file")
    diff.set_defaults(func=_cmd_diff)

    compat = commands.add_parser(
        "compat", help="check backward compatibility of two generated schema sets"
    )
    compat.add_argument("old", help="directory of the old schemas")
    compat.add_argument("new", help="directory of the new schemas")
    compat.set_defaults(func=_cmd_compat)

    stats = commands.add_parser(
        "stats", help="generate a catalog model under tracing and print the obs report"
    )
    stats.add_argument(
        "name", nargs="?", default="easybiz", choices=["easybiz", "ecommerce"],
        help="catalog model to run (default: easybiz)",
    )
    stats.add_argument(
        "--runs", type=int, default=2,
        help="generation runs on the same generator (default 2, so memo hits show)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document (schemas, validation, "
        "coverage, metrics snapshot) instead of the text report",
    )
    stats.set_defaults(func=_cmd_stats)

    profile = commands.add_parser(
        "profile",
        help="repeat a catalog generation under tracing and emit a call-tree profile",
    )
    profile.add_argument(
        "name", nargs="?", default="easybiz", choices=["easybiz", "ecommerce"],
        help="catalog model to profile (default: easybiz)",
    )
    profile.add_argument(
        "--runs", type=int, default=5,
        help="generation runs, one fresh generator each (default 5)",
    )
    profile.add_argument(
        "--use-cache", action="store_true",
        help="profile warm-cache runs through the shared generation cache",
    )
    profile.add_argument(
        "--profile-format", choices=["table", "json", "collapsed"], default="table",
        help="output format: hot-path table (default), JSON, or collapsed "
        "flamegraph stacks (root;child;leaf <self-wall-us>)",
    )
    profile.add_argument(
        "--profile-out", metavar="FILE",
        help="write the profile to FILE instead of stdout",
    )
    profile.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the table / cProfile report (default 20)",
    )
    profile.add_argument(
        "--cprofile-out", metavar="FILE",
        help="also run the generations under cProfile and write the "
        "function-level pstats report to FILE ('-' for stdout)",
    )
    profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    observed = args.trace or args.metrics_out
    # stats and profile configure tracing themselves; reconfiguring here
    # would replace their ring.
    if observed and args.command not in ("stats", "profile"):
        import repro.obs as obs

        obs.configure(trace=args.trace, reset_metrics=True)
    status = 0
    try:
        status = args.func(args)
    except ReproError as error:
        where = ""
        if isinstance(error, XmiError) and error.line is not None:
            where = f"line {error.line}, column {error.column}: "
        print(f"error: {where}{error}", file=sys.stderr)
        status = 1
    finally:
        if observed:
            try:
                _report_observability(args)
            except OSError as error:
                print(
                    f"error: cannot write metrics to {args.metrics_out}: {error}",
                    file=sys.stderr,
                )
                status = status or 1
    return status


def _report_observability(args: argparse.Namespace) -> None:
    import repro.obs as obs

    if args.trace and args.command not in ("stats", "profile"):
        print("== span tree ==", file=sys.stderr)
        print(obs.get_tracer().render_tree(), file=sys.stderr)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            obs.get_metrics().render_json() + "\n", encoding="utf-8"
        )
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
