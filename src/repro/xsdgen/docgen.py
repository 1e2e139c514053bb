"""Human-readable HTML documentation for generated schema sets.

Business partners adopting a document standard read *documentation*, not
raw XSD.  :func:`document_schemas` renders one self-contained HTML page for
a generation result: a namespace index, one section per schema with its
types and elements, cross-linked type references, multiplicities in UML
notation and the CCTS annotations (definitions, versions, dictionary entry
names) where the model provided them.

No external assets: the styling is a small embedded stylesheet, so the
file can be mailed around like the spreadsheets the paper complains about
-- except this one is generated and always current.
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.xmlutil.qname import QName
from repro.xsd.components import (
    XSD_NS,
    Annotation,
    ComplexType,
    Schema,
    SimpleType,
    particle_elements,
)
from repro.xsdgen.generator import GenerationResult

_STYLE = """
body { font-family: Georgia, serif; margin: 2em auto; max-width: 60em; color: #222; }
h1 { border-bottom: 3px double #888; padding-bottom: .3em; }
h2 { background: #f0ede6; padding: .3em .5em; margin-top: 2em; }
h3 { margin-top: 1.5em; }
table { border-collapse: collapse; width: 100%; margin: .5em 0; }
th, td { border: 1px solid #ccc; padding: .3em .6em; text-align: left;
         font-family: "DejaVu Sans Mono", monospace; font-size: .85em; }
th { background: #f7f5f0; }
.den { color: #666; font-style: italic; }
.def { margin: .3em 0 .8em; }
.kind { color: #875; font-variant: small-caps; margin-right: .5em; }
code { background: #f4f2ec; padding: 0 .2em; }
nav ul { columns: 2; }
"""


def _doc_text(value: str) -> str:
    """Escape model-supplied documentation text for HTML.

    Beyond :func:`html.escape`, carriage returns become ``&#13;`` -- the
    same rule as XML character data (parsers normalize a literal ``\\r``
    away on input), so definitions round-trip through the page source.
    """
    return html.escape(value).replace("\r", "&#13;")


def _anchor(namespace: str, local: str) -> str:
    return f"t-{abs(hash((namespace, local))) % 10**10}-{local}"


def _type_link(qname: QName | None, known: set[tuple[str, str]]) -> str:
    if qname is None:
        return "—"
    label = html.escape(qname.local)
    if qname.namespace == XSD_NS:
        return f"<code>xsd:{label}</code>"
    if (qname.namespace, qname.local) in known:
        return f'<a href="#{_anchor(qname.namespace, qname.local)}"><code>{label}</code></a>'
    return f"<code>{label}</code>"


def _mult(min_occurs: int, max_occurs: int | None) -> str:
    upper = "*" if max_occurs is None else str(max_occurs)
    if str(min_occurs) == upper:
        return str(min_occurs)
    return f"{min_occurs}..{upper}"


def _annotation_html(annotation: Annotation | None) -> str:
    if annotation is None or annotation.is_empty():
        return ""
    parts = []
    entries = dict(annotation.entries)
    den = entries.get("DictionaryEntryName")
    if den:
        parts.append(f'<div class="den">{_doc_text(den)}</div>')
    definition = entries.get("Definition")
    if definition:
        parts.append(f'<div class="def">{_doc_text(definition)}</div>')
    return "".join(parts)


def _complex_type_html(schema: Schema, ct: ComplexType, known: set[tuple[str, str]]) -> str:
    out = [f'<h3 id="{_anchor(schema.target_namespace, ct.name)}">'
           f'<span class="kind">complexType</span>{html.escape(ct.name)}</h3>']
    out.append(_annotation_html(ct.annotation))
    if ct.simple_content is not None:
        content = ct.simple_content
        out.append(
            f"<p>Simple content: <em>{content.derivation}</em> of "
            f"{_type_link(content.base, known)}</p>"
        )
        if content.attributes:
            out.append("<table><tr><th>attribute</th><th>type</th><th>use</th></tr>")
            for attribute in content.attributes:
                out.append(
                    f"<tr><td>{html.escape(attribute.name)}</td>"
                    f"<td>{_type_link(attribute.type, known)}</td>"
                    f"<td>{attribute.use.value}</td></tr>"
                )
            out.append("</table>")
    elif ct.particle is not None:
        elements = particle_elements(ct.particle)
        if elements:
            out.append("<table><tr><th>element</th><th>type</th><th>occurs</th></tr>")
            for element in elements:
                name = element.name if not element.is_ref else f"ref: {element.ref.local}"
                type_ref = element.type if not element.is_ref else element.ref
                out.append(
                    f"<tr><td>{html.escape(name)}</td>"
                    f"<td>{_type_link(type_ref, known)}</td>"
                    f"<td>{_mult(element.min_occurs, element.max_occurs)}</td></tr>"
                )
            out.append("</table>")
        else:
            out.append("<p>(no content)</p>")
    return "\n".join(out)


def _simple_type_html(schema: Schema, st: SimpleType, known: set[tuple[str, str]]) -> str:
    out = [f'<h3 id="{_anchor(schema.target_namespace, st.name)}">'
           f'<span class="kind">simpleType</span>{html.escape(st.name)}</h3>']
    out.append(_annotation_html(st.annotation))
    out.append(f"<p>Restriction of {_type_link(st.base, known)}</p>")
    values = st.enumeration_values
    if values:
        codes = ", ".join(f"<code>{html.escape(v)}</code>" for v in values)
        out.append(f"<p>Allowed values: {codes}</p>")
    return "\n".join(out)


def document_schemas(result: GenerationResult, title: str = "Schema documentation") -> str:
    """Render one HTML page documenting every schema in ``result``."""
    known: set[tuple[str, str]] = set()
    for generated in result.schemas.values():
        for item in generated.schema.items:
            if isinstance(item, (ComplexType, SimpleType)):
                known.add((generated.namespace.urn, item.name))

    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        "<nav><ul>",
    ]
    ordered = [result.schemas[urn] for urn in sorted(result.schemas)]
    for generated in ordered:
        out.append(
            f'<li><a href="#ns-{_anchor(generated.namespace.urn, "_")}">'
            f"{html.escape(generated.library.name)}</a> "
            f"<code>{html.escape(generated.namespace.urn)}</code></li>"
        )
    out.append("</ul></nav>")

    for generated in ordered:
        schema = generated.schema
        out.append(
            f'<h2 id="ns-{_anchor(generated.namespace.urn, "_")}">'
            f"{html.escape(generated.library.stereotype)} "
            f"{html.escape(generated.library.name)}</h2>"
        )
        out.append(f"<p>Namespace: <code>{html.escape(schema.target_namespace)}</code><br>")
        out.append(f"File: <code>{html.escape(generated.namespace.file_name)}</code></p>")
        for element in schema.global_elements:
            out.append(
                f"<p><span class='kind'>root element</span>"
                f"<strong>{html.escape(element.name)}</strong> of type "
                f"{_type_link(element.type, known)}</p>"
            )
        for item in schema.items:
            if isinstance(item, ComplexType):
                out.append(_complex_type_html(schema, item, known))
            elif isinstance(item, SimpleType):
                out.append(_simple_type_html(schema, item, known))
    out.append("</body></html>")
    return "\n".join(out)


def write_documentation(result: GenerationResult, path: str | Path, title: str = "Schema documentation") -> Path:
    """Render and write the documentation page; returns the path."""
    path = Path(path)
    path.write_text(document_schemas(result, title), encoding="utf-8")
    return path
