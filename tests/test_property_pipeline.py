"""Property-based tests over randomly generated core-component models.

A hypothesis strategy builds arbitrary (but CCTS-valid) models: random CDT
shapes, random ACC graphs, random restrictions into ABIEs, random document
assembly.  For every generated model the whole pipeline must hold:

* the validation engine reports no errors,
* schema generation succeeds and is deterministic,
* generated schemas round-trip through the XSD parser,
* a generated sample instance validates against the schemas,
* the model round-trips through XMI with zero structural differences.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ccts.derivation import derive_abie
from repro.ccts.model import CctsModel
from repro.instances import InstanceGenerator
from repro.interchange import diff_models
from repro.uml.association import AggregationKind
from repro.validation import validate_model
from repro.xmi import read_xmi, write_xmi
from repro.xsd.parser import parse_schema
from repro.xsd.validator import validate_instance
from repro.xsdgen import SchemaGenerator

_names = st.sampled_from(
    ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]
)
_field_names = st.sampled_from(
    ["Name", "Kind", "Count", "Created", "Reference", "Status", "Note"]
)
_mults = st.sampled_from(["1", "0..1", "1..*", "0..*"])
_narrower = {"1": ["1"], "0..1": ["0..1", "1"], "1..*": ["1..*", "1"], "0..*": ["0..*", "0..1", "1", "1..*"]}


@st.composite
def _models(draw) -> tuple[CctsModel, object, str]:
    model = CctsModel("Random")
    business = model.add_business_library("R", "urn:random")
    prims = business.add_prim_library("Prims")
    string = prims.add_primitive("String")
    decimal = prims.add_primitive("Decimal")
    cdts = business.add_cdt_library("Cdts")
    cdt_specs = draw(
        st.lists(
            st.tuples(st.sampled_from(["Text", "Code", "Amount", "Identifier"]), st.integers(0, 2)),
            min_size=1,
            max_size=3,
            unique_by=lambda spec: spec[0],
        )
    )
    cdt_wrappers = []
    for cdt_name, sup_count in cdt_specs:
        cdt = cdts.add_cdt(cdt_name)
        content = decimal if cdt_name == "Amount" else string
        cdt.set_content(content.element)
        for index in range(sup_count):
            cdt.add_supplementary(f"Sup{index}", string.element, draw(st.sampled_from(["1", "0..1"])))
        cdt_wrappers.append(cdt)

    ccs = business.add_cc_library("Ccs")
    acc_names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    accs = []
    for acc_name in acc_names:
        acc = ccs.add_acc(acc_name)
        field_count = draw(st.integers(1, 3))
        fields = draw(st.lists(_field_names, min_size=field_count, max_size=field_count, unique=True))
        for field in fields:
            acc.add_bcc(field, draw(st.sampled_from(cdt_wrappers)), draw(_mults))
        accs.append(acc)
    # Random ASCCs, only "forward" so composition chains terminate.
    for index, acc in enumerate(accs):
        for target in accs[index + 1:]:
            if draw(st.booleans()):
                acc.add_ascc(
                    f"Linked{target.name}",
                    target,
                    draw(_mults),
                    draw(st.sampled_from([AggregationKind.COMPOSITE, AggregationKind.SHARED])),
                )

    bies = business.add_bie_library("Bies")
    abies = {}
    for acc in reversed(accs):  # targets first so ASBIEs can be wired
        derivation = derive_abie(bies, acc, qualifier="R")
        for bcc in acc.bccs:
            if draw(st.booleans()) or not abies:
                derivation.include(bcc.name, draw(st.sampled_from(_narrower[str(bcc.multiplicity)])))
        if not derivation.abie.bbies and acc.bccs:
            derivation.include(acc.bccs[0].name)
        for ascc in acc.asccs:
            target_abie = abies.get(ascc.target.name)
            if target_abie is not None and draw(st.booleans()):
                derivation.connect(ascc.role, target_abie, based_on=ascc)
        abies[acc.name] = derivation.abie

    doc = business.add_doc_library("Doc")
    root_derivation = derive_abie(doc, accs[0], name="Root")
    if accs[0].bccs:
        root_derivation.include(accs[0].bccs[0].name)
    root_derivation.connect("Main", abies[accs[0].name], "1")
    return model, doc, "Root"


_pipeline_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomModels:
    @_pipeline_settings
    @given(_models())
    def test_random_models_validate_clean(self, built):
        model, _, _ = built
        report = validate_model(model)
        assert report.ok, str(report)

    @_pipeline_settings
    @given(_models())
    def test_generation_succeeds_and_is_deterministic(self, built):
        model, doc, root = built
        first = SchemaGenerator(model).generate(doc, root=root)
        second = SchemaGenerator(model).generate(doc, root=root)
        assert {u: g.to_string() for u, g in first.schemas.items()} == {
            u: g.to_string() for u, g in second.schemas.items()
        }

    @_pipeline_settings
    @given(_models())
    def test_generated_schemas_parse_back_identically(self, built):
        model, doc, root = built
        result = SchemaGenerator(model).generate(doc, root=root)
        from repro.xsd.writer import schema_to_string

        for generated in result.schemas.values():
            text = generated.to_string()
            assert schema_to_string(parse_schema(text)) == text

    @_pipeline_settings
    @given(_models())
    def test_instances_validate_against_generated_schemas(self, built):
        model, doc, root = built
        result = SchemaGenerator(model).generate(doc, root=root)
        schema_set = result.schema_set()
        document = InstanceGenerator(schema_set).generate(root)
        assert validate_instance(schema_set, document) == []

    @_pipeline_settings
    @given(_models())
    def test_xmi_round_trip_lossless(self, built):
        model, _, _ = built
        reloaded = CctsModel(model=read_xmi(write_xmi(model.model)))
        assert diff_models(model, reloaded) == []


class TestRandomModelExtensions:
    @_pipeline_settings
    @given(_models())
    def test_reverse_engineering_round_trip(self, built):
        from repro.reverse import reverse_engineer

        model, doc, root = built
        result = SchemaGenerator(model).generate(doc, root=root)
        report = reverse_engineer(result.schema_set())
        assert validate_model(report.model).ok
        doc_library = report.model.library_named(report.doc_library_names[0])
        regenerated = SchemaGenerator(report.model).generate(
            doc_library, root=report.root_elements[0]
        )
        message = InstanceGenerator(result.schema_set()).generate(root)
        assert validate_instance(regenerated.schema_set(), message) == []

    @_pipeline_settings
    @given(_models())
    def test_binding_round_trip_on_generated_instances(self, built):
        from repro.binding import marshal, unmarshal

        model, doc, root = built
        schema_set = SchemaGenerator(model).generate(doc, root=root).schema_set()
        document = InstanceGenerator(schema_set).generate(root)
        data = unmarshal(schema_set, document)
        remarshalled = marshal(schema_set, root, data)
        assert unmarshal(schema_set, remarshalled) == data

    @_pipeline_settings
    @given(_models())
    def test_rng_engine_agrees_on_random_models(self, built):
        from repro.rngen import result_to_rng

        from tests.mutate import drop_required_child
        from tests.rng_validator import RngValidator, compile_grammar

        model, doc, root = built
        result = SchemaGenerator(model).generate(doc, root=root)
        schema_set = result.schema_set()
        rng = RngValidator(compile_grammar(result_to_rng(result, root)))
        valid = InstanceGenerator(schema_set).generate(root)
        assert rng.validate(valid) == (validate_instance(schema_set, valid) == [])
        mutated = InstanceGenerator(schema_set).generate(root)
        # Drop the first required child anywhere, if one exists.
        required = next(
            (el.name for g in result.schemas.values()
             for ct in g.schema.complex_types if ct.particle
             for el in ct.particle.particles
             if getattr(el, "min_occurs", 0) >= 1 and getattr(el, "name", None)),
            None,
        )
        if required is not None and drop_required_child(mutated, required):
            assert rng.validate(mutated) == (validate_instance(schema_set, mutated) == [])
