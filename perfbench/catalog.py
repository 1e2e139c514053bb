"""Seeded core-component catalogs of one fixed size: the EasyBiz shape.

Every catalog has the shape of the paper's EasyBiz model (Figure 4,
``repro.catalog.easybiz``), slot by slot: the same libraries, the same
ACCs with the same BCC data types and ASCCs, the same ABIEs keeping the
same BCCs, the same ASBIE multiplicities and aggregation kinds, the same
QDTs and code-list sizes.  That is, per catalog:

* 9 ACCs with 29 BCCs and 7 ASCCs (one ACC, the "party" slot, is not
  derived, as in EasyBiz);
* 8 ABIEs with 14 BBIEs and 6 ASBIEs: a DOC library holding the root
  ABIE (4 BBIEs, 4 ASBIEs, two of them sharing the role ``Included``) and
  an unused second ABIE, a first BIE library holding five ABIEs (with one
  composite and one shared ASBIE between them) and a second BIE library
  holding one, so ASBIEs cross library boundaries;
* 4 QDTs restricting the Code CDT (two of them to a code list's literals,
  keeping only ``CodeListName``), 2 code lists of 3 and 5 literals, the
  paper's CDT library and the standard PRIM library.

Only names and code-list literals change with the seed, so one
generation op, and one instance document of a given fill, costs the same
on every seed.  The seed picks every ACC, ABIE, QDT and code-list name,
every property name and every literal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog.cdts import add_paper_cdt_library
from repro.catalog.primitives import add_standard_prim_library
from repro.ccts.derivation import derive_abie, derive_qdt
from repro.ccts.model import CctsModel
from repro.uml.association import AggregationKind
from repro.xmi import write_xmi

#: The seed whose catalogs ``golden.json`` pins.
DEFAULT_SEED = 1
#: Catalogs (document types) per benchmark seed.
CATALOGS_PER_SEED = 4

#: EasyBiz's ACCs, slot by slot: ``(slot, BCC data types)``.  Every BCC is
#: ``0..1`` except the "person" slot's, which is ``1`` (as Designation).
ACC_SLOTS = (
    ("head", ("Text", "Code", "Code", "Text")),  # HoardingPermit
    ("attachment", ("Text", "BinaryObject", "Text", "Measure")),
    ("application", ("Date", "Amount", "Text", "Date", "Text", "Identifier",
                     "Text", "Text", "Code", "Code", "Code")),
    ("party", ("Text", "Text", "Code")),
    ("signature", ("DateTime", "Text", "BinaryObject")),
    ("address", ("Code",)),
    ("person", ("Identifier",)),  # Person_Identification
    ("registration", ("Code",)),
    ("details", ("Text",)),  # HoardingDetails
)

#: EasyBiz's ASCCs: ``(source slot, role, target slot, multiplicity, kind)``.
#: The head's are in the order of the paper's Figure 6.
ASCCS = (
    ("application", "Applicant", "party", "1", AggregationKind.COMPOSITE),
    ("person", "Personal", "signature", "1", AggregationKind.COMPOSITE),
    ("person", "Assigned", "address", "1", AggregationKind.SHARED),
    ("head", "Included", "attachment", "0..*", AggregationKind.COMPOSITE),
    ("head", "Current", "application", "0..1", AggregationKind.COMPOSITE),
    ("head", "Included", "registration", "1", AggregationKind.COMPOSITE),
    ("head", "Billing", "person", "0..1", AggregationKind.COMPOSITE),
)

#: EasyBiz's ABIEs: ``(slot, library, indexes of the BCCs kept, QDT slot
#: of the kept Code BCCs)``, bottom-up, so every ASBIE target exists first.
ABIE_SLOTS = (
    ("signature", "common", (0, 1, 2), None),
    ("address", "common", (0,), "country"),
    ("person", "common", (0,), None),
    ("application", "common", (0, 10), None),
    ("registration", "local", (0,), "registration"),
    ("attachment", "common", (0,), None),
    ("head", "doc", (0, 1, 2, 3), "indicator"),
    ("details", "doc", (0,), None),
)

#: EasyBiz's code lists: ``(QDT slot, literal count)``.
CODE_LISTS = (("country", 3), ("council", 5))

_NOUNS = (
    "Account", "Address", "Agreement", "Allowance", "Attachment", "Branch",
    "Carrier", "Certificate", "Charge", "Consignment", "Contact", "Contract",
    "Country", "Delivery", "Despatch", "Document", "Event", "Facility",
    "Fee", "Inspection", "Invoice", "Item", "Licence", "Location", "Measurement",
    "Organisation", "Package", "Party", "Payment", "Period", "Permit",
    "Person", "Price", "Product", "Project", "Receipt", "Registration",
    "Schedule", "Shipment", "Signature", "Status", "Tax", "Transport",
    "Vehicle", "Warehouse",
)

_PROPERTIES = (
    "Amount", "Category", "Comment", "Count", "Created", "Description",
    "Designation", "Duration", "Effective", "Expiry", "Grade", "Height",
    "Issued", "Kind", "Label", "Language", "Level", "Limit", "Name",
    "Number", "Priority", "Purpose", "Quality", "Rank", "Reason",
    "Reference", "Remark", "Score", "Sequence", "Size", "Source", "Summary",
    "Title", "Total", "Type", "Value", "Version", "Weight", "Width",
)

_ROOTS = ("Application", "Declaration", "Notification", "Request", "Report", "Statement")


@dataclass
class Catalog:
    """One generated catalog: the model plus what a caller needs to run it."""

    seed: int
    model: CctsModel
    doc_library: str
    root: str
    #: ABIEs the schemas define: in a DOC library only those reachable
    #: from the root get a complexType (the paper's Figure 6)
    abie_count: int
    #: every code-list literal, to locate code values in instances
    codes: set[str]
    xmi: str


def catalog_seeds(seed: int) -> list[int]:
    """The catalog seeds of benchmark seed ``seed`` (disjoint across seeds)."""
    return [seed * 16 + index for index in range(CATALOGS_PER_SEED)]


def build_catalog(seed: int) -> Catalog:
    """The catalog for ``seed`` (same seed, same model, same XMI)."""
    rng = random.Random(seed)
    tag = f"{seed:x}"
    model = CctsModel(f"Bench{tag}")
    business = model.add_business_library(f"Bench{tag}", f"urn:example:bench:{tag}")
    prims = add_standard_prim_library(business)
    cdts = add_paper_cdt_library(business, prims, "coredatatypes")

    nouns = rng.sample(_NOUNS, len(ACC_SLOTS) + len(CODE_LISTS))
    names = dict(zip((slot for slot, _types in ACC_SLOTS), nouns))
    names["head"] = f"{names['head']}{rng.choice(_ROOTS)}"
    names["details"] = f"{names['head']}Details"

    enums = business.add_enum_library("EnumerationTypes", version="1.0")
    qdts = business.add_qdt_library("CommonDataTypes", version="1.0")
    code = cdts.cdt("Code")
    qualified = {}
    codes: set[str] = set()
    for (slot, count), noun in zip(CODE_LISTS, nouns[len(ACC_SLOTS):]):
        literals = {
            f"C{value}": f"{noun} code {value}" for value in rng.sample(range(100, 1000), count)
        }
        codes.update(literals)
        enumeration = enums.add_enumeration(f"{noun}Type_Code", literals)
        qualified[slot] = derive_qdt(
            qdts, code, f"{noun}Type",
            keep_supplementaries={"CodeListName": "0..1"}, content_enum=enumeration,
        )
    qualified["indicator"] = derive_qdt(qdts, code, "Indicator_Code")
    qualified["registration"] = derive_qdt(qdts, code, "RegistrationType_Code")

    ccs = business.add_cc_library("CandidateCoreComponents", version="1.0")
    accs = {}
    for slot, types in ACC_SLOTS:
        acc = accs[slot] = ccs.add_acc(names[slot])
        multiplicity = "1" if slot == "person" else "0..1"
        for prop, cdt_name in zip(rng.sample(_PROPERTIES, len(types)), types):
            acc.add_bcc(prop, cdts.cdt(cdt_name), multiplicity)
    for source, role, target, multiplicity, kind in ASCCS:
        accs[source].add_ascc(role, accs[target], multiplicity, kind)

    libraries = {
        "common": business.add_bie_library(
            "CommonAggregates", namespacePrefix="commonAggregates", version="1.0"
        ),
        "local": business.add_bie_library("LocalLawAggregates", version="1.0"),
        "doc": business.add_doc_library(f"{names['head']}Message", version="1.0"),
    }
    abies = {}
    for slot, library, kept, qdt_slot in ABIE_SLOTS:
        acc = accs[slot]
        derivation = derive_abie(libraries[library], acc)
        for index in kept:
            bcc = acc.bccs[index]
            retype = qdt_slot if bcc.element.type_name == "Code" else None
            derivation.include(bcc.name, data_type=qualified[retype] if retype else None)
        for source, role, target, multiplicity, _kind in ASCCS:
            if source == slot and target in abies:
                ascc = next(
                    ascc for ascc in acc.asccs
                    if ascc.role == role and ascc.target.element is accs[target].element
                )
                derivation.connect(role, abies[target], multiplicity, based_on=ascc)
        abies[slot] = derivation.abie

    return Catalog(
        seed=seed,
        model=model,
        doc_library=libraries["doc"].name,
        root=names["head"],
        abie_count=len(abies) - 1,  # all but the unused "details" ABIE
        codes=codes,
        xmi=write_xmi(model.model),
    )
