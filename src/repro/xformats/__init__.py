"""The XML interchange formats of the communication & metadata layer.

"the Communication & Metadata layer uses logical (XML-based) formats for
representing elements that are exchanged among the components.
Information requirements are represented [...] using a format called
xRQ.  An MD schema is represented using the xMD format, and an ETL
process design using the xLM format" (§2.5).

* :mod:`repro.xformats.xrq` — information requirements,
* :mod:`repro.xformats.xmd` — MD schemas,
* :mod:`repro.xformats.xlm` — ETL flows,
* :mod:`repro.xformats.xmljson` — the generic XML↔JSON converter used
  at the MongoDB-style repository boundary; each codec's ``to_tree``
  builds that JSON tree straight from the model with its helpers,
  and ``dumps`` renders the tree,
* :mod:`repro.xformats.registry` — plug-in import/export parsers for
  external notations (SQL DDL, PDI, ...).
"""

from repro.xformats import xlm, xmd, xrq
from repro.xformats.registry import FormatRegistry
from repro.xformats.xmljson import json_to_xml, xml_to_json

__all__ = [
    "FormatRegistry",
    "json_to_xml",
    "xlm",
    "xmd",
    "xml_to_json",
    "xrq",
]
