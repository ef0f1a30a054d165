"""docs/API.md and the service's ``service.*`` names, reconciled.

Every string literal beginning ``service.`` under ``src/repro/service/``
-- counters, gauges, histograms, op records, the flush span, the two
header-metadata keys -- must have a row in the "Service metrics" tables
of docs/API.md, and every row must name a literal that still exists.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
LITERAL = re.compile(r"""["'](service\.[A-Za-z_.{}]*[A-Za-z_}])["']""")
ROW = re.compile(r"^\| (`service\.[^|]*) \|", re.M)


def names_in_source():
    names = set()
    for path in (ROOT / "src" / "repro" / "service").glob("*.py"):
        for literal in LITERAL.findall(path.read_text()):
            names.add(literal.replace("{", "<").replace("}", ">"))
    return names


def names_in_docs():
    text = (ROOT / "docs" / "API.md").read_text()
    section = text[text.index("### Service metrics"):]
    section = section[:section.index("\n### ", 1)]
    names = []
    for cell in ROW.findall(section):
        names.extend(re.findall(r"`(service\.[^`]+)`", cell))
    return names


def test_every_service_name_has_exactly_one_row():
    documented = names_in_docs()
    assert len(documented) == len(set(documented)), sorted(
        n for n in documented if documented.count(n) > 1)
    source = names_in_source()
    assert len(source) >= 40  # the scan still finds the family
    assert sorted(source - set(documented)) == [], "names without a row"
    assert sorted(set(documented) - source) == [], "rows without a name"
