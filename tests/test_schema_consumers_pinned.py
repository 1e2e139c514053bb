"""Sample instances and RELAX NG grammars pinned by digest.

:class:`~repro.instances.InstanceGenerator` (default and
``fill_optional=False``) and ``rng_to_string(result_to_rng(...))`` read the
generated schemas back through :class:`~repro.xsd.validator.SchemaSet`.
Their output for every global element of the easybiz, ecommerce and
figure1 generated schema sets must not change when that reading is
reworked.  The easybiz HoardingPermit instance is also golden as a file
(``tests/test_golden_outputs.py``).
"""

import hashlib

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.catalog.figure1 import build_figure1_model
from repro.instances import InstanceGenerator
from repro.rngen import result_to_rng, rng_to_string
from repro.xmlutil.qname import QName
from repro.xsdgen import SchemaGenerator


def _result(name: str):
    if name == "easybiz":
        catalog = build_easybiz_model()
        return SchemaGenerator(catalog.model).generate(catalog.doc_library, root="HoardingPermit")
    if name == "ecommerce":
        catalog = build_ecommerce_model()
        return SchemaGenerator(catalog.model).generate(catalog.doc_library, root="PurchaseOrder")
    catalog = build_figure1_model()
    return SchemaGenerator(catalog.model).generate(catalog.bie_library)


#: (catalog, root namespace, root local name) -> sha256 of the default
#: instance, of the ``fill_optional=False`` instance and of the grammar.
PINNED = {
    ("easybiz", "urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit", "HoardingPermit"): (
        "54741538e5728e76bf855c9a84a9991a17c3cfafbfc0f622840551ee22370aa6",
        "a52ea612623bc6e091e06ed0718f7c367afbef078aa9fa4d791706fcf8ab2b88",
        "6389098d1188d9d4127197e9139794cf453099dd42669925d9c95510272eff87",
    ),
    ("easybiz", "urn:au:gov:vic:easybiz:data:draft:CommonAggregates", "AssignedAddress"): (
        "9710238247bc234e2c45812e1a1d0a26f19fc37020680e4a83f5ba20cdedb91c",
        "67636ea2b5b343416b2eb2eb57d47ac648d666c6f22af1d8cf39c65814e7f904",
        "0638a1178b5b44148123ed0c1daf0b5fecf434cc0f3af06fc6c31cd55cb91fbf",
    ),
    ("ecommerce", "urn:example:ecommerce:data:draft:PurchaseOrder", "PurchaseOrder"): (
        "564ae1c3a2686f0007602aee0f05b4c2d975e1797c0b0bd7620211741f4b6205",
        "1a360928d4537b2526dffe56f3df734087a1a1602ea356f1764e0e4d06d1a18e",
        "1dd14b4c5fd7c904003a76da25144278a6ea6b0ae06d9c4dd71fe6a04ad93071",
    ),
    ("ecommerce", "urn:example:ecommerce:data:draft:OrderAggregates", "DeliveryAddress"): (
        "e41b605c16e94ec46be668ff3554595c00c6353461d652a6b3c5a8e065c30024",
        "ba4bec3f5d64f05a75a06bcaa27182be50e34d76727b53b220944fa963834a29",
        "ae9bb7088cc20f81f15649612502e44295283a140a84af653fd043e31c713a34",
    ),
    ("figure1", "urn:example:figure1:data:draft:USEntities", "US_WorkUS_Address"): (
        "8f059455c83a69aece12d1abb9c75c85c6c569836426f1adbe3b74bca68f8d9e",
        "8f059455c83a69aece12d1abb9c75c85c6c569836426f1adbe3b74bca68f8d9e",
        "e962cec0e2dda02e5918a2254775b443c669b90e8ea356b0ca9f8903c6c35b20",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_results: dict = {}


def _generated(catalog: str):
    """The generation result of ``catalog``, built once per test session."""
    if catalog not in _results:
        _results[catalog] = _result(catalog)
    return _results[catalog]


def _outputs(catalog: str, namespace: str, local: str) -> tuple[str, str, str]:
    result = _generated(catalog)
    schema_set = result.schema_set()
    root = QName(namespace, local)
    return (
        _digest(InstanceGenerator(schema_set).generate_string(root)),
        _digest(InstanceGenerator(schema_set, fill_optional=False).generate_string(root)),
        _digest(rng_to_string(result_to_rng(result, root))),
    )


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"{key[0]}-{key[2]}")
def test_outputs_match_pins(key):
    assert _outputs(*key) == PINNED[key]


@pytest.mark.parametrize("catalog", ["easybiz", "ecommerce", "figure1"])
def test_every_global_element_is_pinned(catalog):
    schema_set = _generated(catalog).schema_set()
    roots = {
        (catalog, namespace, element.name)
        for namespace in schema_set.namespaces
        for element in schema_set.schema_for(namespace).global_elements
    }
    assert roots == {key for key in PINNED if key[0] == catalog}
