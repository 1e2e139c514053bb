"""An additional e-commerce purchase-order model.

The paper's introduction motivates core components with B2B document
exchange (EDI / UN/EDIFACT heritage); this catalog entry exercises the full
machinery on that canonical domain: a ``PurchaseOrder`` document assembled
from reusable party/line-item aggregates, with currency- and country-
qualified data types.  It doubles as the second domain-specific example
application and as the second catalog of the binding, reverse-engineering
and instance-pipeline tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.cdts import add_standard_cdt_library
from repro.catalog.primitives import add_standard_prim_library
from repro.ccts.bie import Abie
from repro.ccts.derivation import derive_abie, derive_qdt
from repro.ccts.libraries import BieLibrary, DocLibrary
from repro.ccts.model import CctsModel
from repro.uml.association import AggregationKind

#: ISO-4217-ish currency codes used by the CurrencyType QDT.
CURRENCY_LITERALS = {
    "EUR": "Euro",
    "USD": "US Dollar",
    "AUD": "Australian Dollar",
    "GBP": "Pound Sterling",
    "JPY": "Yen",
}

#: ISO-3166-ish country codes used by the CountryType QDT.
COUNTRY_LITERALS = {
    "AT": "Austria",
    "DE": "Germany",
    "US": "United States",
    "AU": "Australia",
}


@dataclass
class EcommerceModel:
    """Handles on the purchase-order model."""

    model: CctsModel
    doc_library: DocLibrary
    bie_library: BieLibrary
    purchase_order: Abie


def build_ecommerce_model() -> EcommerceModel:
    """Construct the purchase-order model."""
    model = CctsModel("ECommerce")
    business = model.add_business_library("OrderExchange", "urn:example:ecommerce")
    prims = add_standard_prim_library(business)
    cdts = add_standard_cdt_library(business, prims)
    code = cdts.cdt("Code")
    text = cdts.cdt("Text")
    name = cdts.cdt("Name")
    identifier = cdts.cdt("Identifier")
    date = cdts.cdt("Date")
    amount = cdts.cdt("Amount")
    quantity = cdts.cdt("Quantity")
    indicator = cdts.cdt("Indicator")

    enums = business.add_enum_library("CodeLists")
    currency_enum = enums.add_enumeration("Currency_Code", CURRENCY_LITERALS)
    country_enum = enums.add_enumeration("Country_Code", COUNTRY_LITERALS)

    qdts = business.add_qdt_library("OrderDataTypes")
    currency_type = derive_qdt(
        qdts, code, "CurrencyType",
        keep_supplementaries={"CodeListName": "0..1"},
        content_enum=currency_enum,
    )
    country_type = derive_qdt(
        qdts, code, "CountryType",
        keep_supplementaries=["CodeListName"],
        content_enum=country_enum,
    )
    order_status_type = derive_qdt(qdts, code, "OrderStatusType")

    ccs = business.add_cc_library("OrderComponents")
    address_acc = ccs.add_acc("Address")
    address_acc.add_bcc("Street", text, "1")
    address_acc.add_bcc("CityName", name, "1")
    address_acc.add_bcc("PostalCode", text, "0..1")
    address_acc.add_bcc("Country", code, "0..1")
    party_acc = ccs.add_acc("Party")
    party_acc.add_bcc("Identification", identifier, "1")
    party_acc.add_bcc("Name", name, "1")
    party_acc.add_bcc("TaxIdentifier", identifier, "0..1")
    party_acc.add_ascc("Postal", address_acc, "1", AggregationKind.COMPOSITE)
    party_acc.add_ascc("Delivery", address_acc, "0..1", AggregationKind.SHARED)
    line_item_acc = ccs.add_acc("LineItem")
    line_item_acc.add_bcc("Identification", identifier, "1")
    line_item_acc.add_bcc("Description", text, "0..1")
    line_item_acc.add_bcc("Quantity", quantity, "1")
    line_item_acc.add_bcc("UnitPrice", amount, "1")
    line_item_acc.add_bcc("BackOrderAllowed", indicator, "0..1")
    order_acc = ccs.add_acc("Order")
    order_acc.add_bcc("Identification", identifier, "1")
    order_acc.add_bcc("IssueDate", date, "1")
    order_acc.add_bcc("Status", code, "0..1")
    order_acc.add_bcc("TotalAmount", amount, "0..1")
    order_acc.add_bcc("Currency", code, "0..1")
    order_acc.add_ascc("Buyer", party_acc, "1", AggregationKind.COMPOSITE)
    order_acc.add_ascc("Seller", party_acc, "1", AggregationKind.COMPOSITE)
    order_acc.add_ascc("Ordered", line_item_acc, "1..*", AggregationKind.COMPOSITE)

    bies = business.add_bie_library("OrderAggregates", namespacePrefix="order")
    address = derive_abie(bies, address_acc)
    address.include("Street")
    address.include("CityName")
    address.include("PostalCode", "0..1")
    address.include("Country", "0..1", data_type=country_type)
    party = derive_abie(bies, party_acc)
    party.include("Identification")
    party.include("Name")
    party.connect("Postal", address.abie, based_on="Postal")
    party.connect("Delivery", address.abie, "0..1", based_on="Delivery")
    line_item = derive_abie(bies, line_item_acc)
    line_item.include("Identification")
    line_item.include("Description", "0..1")
    line_item.include("Quantity")
    line_item.include("UnitPrice")

    doc = business.add_doc_library("PurchaseOrder")
    order = derive_abie(doc, order_acc, name="PurchaseOrder")
    order.include("Identification", rename="Identification")
    order.include("IssueDate")
    order.include("Status", "0..1", data_type=order_status_type)
    order.include("TotalAmount", "0..1")
    order.include("Currency", "0..1", data_type=currency_type)
    order.connect("Buyer", party.abie, based_on="Buyer")
    order.connect("Seller", party.abie, based_on="Seller")
    order.connect("Ordered", line_item.abie, "1..*", based_on="Ordered")

    return EcommerceModel(
        model=model,
        doc_library=doc,
        bie_library=bies,
        purchase_order=order.abie,
    )
