from __future__ import annotations

import re

import pytest

from helixmap.registry import (
    Actor,
    CATEGORY_ORDER,
    DuplicateSite,
    FrameworkRole,
    MissingSeed,
    ParseError,
    Registry,
    RegistryError,
    Sector,
    TableCategory,
    load_registry,
    resolve,
    write_registry,
)
from helixmap.urls import SiteKey


def _actor(aid, sites, category=TableCategory.KNOWLEDGE_BASED_FIRM,
           sector=Sector.INDUSTRY, role=None, label=None):
    return Actor(
        id=aid,
        sites=frozenset(SiteKey(s) for s in sites),
        label=label or aid,
        sector=sector,
        category=category,
        role=role,
    )


SEED = _actor("park.co.uk", ["park.co.uk"], TableCategory.SCIENCE_PARK,
              Sector.GOVERNMENT)


def test_enums_have_exactly_the_expected_members():
    assert [c.value for c in TableCategory] == [
        "ServiceBasedFirm", "KnowledgeBasedFirm", "ConsultantsIpTto",
        "BusinessDevelopersInvestors", "Academia",
        "SupportStructureOrganization", "PublicNonGovOrganization",
        "Government", "SciencePark",
    ]
    assert len(FrameworkRole) == 9
    assert [s.value for s in Sector] == ["Industry", "Academia", "Government"]
    assert CATEGORY_ORDER == tuple(TableCategory)


def test_registry_resolves_sites_to_actors():
    uni = _actor("uni.ac.uk", ["uni.ac.uk", "www.uni.ac.uk"], TableCategory.ACADEMIA,
                 Sector.ACADEMIA, FrameworkRole.UNIVERSITY)
    reg = Registry([SEED, uni])
    assert resolve(SiteKey("uni.ac.uk"), reg) == uni
    assert resolve(SiteKey("www.uni.ac.uk"), reg) == uni
    assert resolve(SiteKey("nowhere.com"), reg) is None
    assert reg.seed == "park.co.uk"


def test_registry_rejects_duplicate_sites():
    a = _actor("a.com", ["shared.com"])
    b = _actor("b.com", ["shared.com"])
    with pytest.raises(DuplicateSite):
        Registry([SEED, a, b])


def test_registry_requires_exactly_one_seed():
    with pytest.raises(MissingSeed):
        Registry([_actor("a.com", ["a.com"])])
    second_park = _actor("park2.co.uk", ["park2.co.uk"], TableCategory.SCIENCE_PARK)
    with pytest.raises(RegistryError):
        Registry([SEED, second_park])


def test_partition_property():
    actors = [SEED] + [_actor(f"a{i}.com", [f"a{i}.com", f"www{i}.a{i}.com"])
                       for i in range(5)]
    reg = Registry(actors)
    seen = {}
    for actor in reg.actors():
        for site in actor.sites:
            assert site.value not in seen
            seen[site.value] = actor.id
            assert resolve(site, reg).id == actor.id


# --- classification file ----------------------------------------------------


CSV_OK = """site,actor_id,label,sector,category,role
park.co.uk,park.co.uk,The Park,Government,SciencePark,
uni.ac.uk,uni.ac.uk,The University,Academia,Academia,University
www.uni.ac.uk,uni.ac.uk,The University,Academia,Academia,University
firm.com,firm.com,A Firm,Industry,KnowledgeBasedFirm,KnowledgeBasedFirm
"""


def test_load_registry_roundtrip(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(CSV_OK, encoding="utf-8")
    reg = load_registry(p)
    assert len(reg) == 3
    uni = reg.get("uni.ac.uk")
    assert uni.sites == frozenset({SiteKey("uni.ac.uk"), SiteKey("www.uni.ac.uk")})
    assert uni.role is FrameworkRole.UNIVERSITY
    assert reg.get(reg.seed).label == "The Park"

    out = tmp_path / "out.csv"
    write_registry(reg, out)
    assert load_registry(out).category_counts() == reg.category_counts()


def test_load_registry_duplicate_site(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        "wlv.ac.uk,a1,A1,Academia,Academia,\n"
        "wlv.ac.uk,a2,A2,Academia,Academia,\n",
        encoding="utf-8",
    )
    with pytest.raises(DuplicateSite):
        load_registry(p)


def test_load_registry_missing_seed(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "wlv.ac.uk,a1,A1,Academia,Academia,\n",
        encoding="utf-8",
    )
    with pytest.raises(MissingSeed):
        load_registry(p)


def test_load_registry_parse_errors(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text("not,the,right,header\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_registry(p)

    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "a.com,a.com,A,Industry,NoSuchCategory,\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        load_registry(p)
    assert err.value.line == 2

    # a site cell holds one site key: two sites, or none, stop the load on its line
    for cell in ("uni.ac.uk; york.ac.uk", "  "):
        p.write_text(
            "site,actor_id,label,sector,category,role\n"
            "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
            f"{cell},uni,U,Academia,Academia,University\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: bad site key ") as err:
            load_registry(p)
        assert err.value.line == 3


def test_load_registry_tolerates_case_and_padding_in_site_cells(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        " Park.CO.uk ,park.co.uk,P,Government,SciencePark,\n",
        encoding="utf-8",
    )
    reg = load_registry(p)
    assert resolve(SiteKey("park.co.uk"), reg).id == "park.co.uk"


def test_load_registry_reads_a_site_written_with_a_root_dot_as_its_host(tmp_path):
    # as canonicalize reads the host of http://Example.COM./
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "Example.COM.,park,P,Government,SciencePark,\n",
        encoding="utf-8",
    )
    assert load_registry(p).get("park").sites == frozenset({SiteKey("example.com")})


def test_load_registry_keys_a_unicode_site_by_its_idna_form(tmp_path):
    # the form canonicalize gives a host, which every crawled or harvested
    # link's site key is reduced from
    p = tmp_path / "reg.csv"
    rows = ("site,actor_id,label,sector,category,role\n"
            "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
            "{},books,B,Industry,KnowledgeBasedFirm,\n")
    p.write_text(rows.format(" Bücher.DE "), encoding="utf-8")
    reg = load_registry(p)
    assert reg.get("books").sites == frozenset({SiteKey("xn--bcher-kva.de")})
    assert resolve(SiteKey("xn--bcher-kva.de"), reg).id == "books"
    # a name IDNA cannot encode stops the load on its line
    p.write_text(rows.format("\u2603.com"), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: cannot encode ") as err:
        load_registry(p)
    assert err.value.line == 3


def test_load_registry_names_the_line_of_a_site_longer_than_a_host_can_be(tmp_path):
    # RFC 1035 caps a host name at 253 characters: no host reduces to a longer site
    p = tmp_path / "reg.csv"
    rows = ("site,actor_id,label,sector,category,role\n"
            "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
            "{},long,L,Industry,KnowledgeBasedFirm,\n")
    site = "a." * 125 + "com"
    p.write_text(rows.format(site), encoding="utf-8")
    assert load_registry(p).get("long").sites == frozenset({SiteKey(site)})
    p.write_text(rows.format("b" + site), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: bad site key ") as err:
        load_registry(p)
    assert err.value.line == 3


def test_load_registry_names_the_physical_line_a_bad_row_starts_on(tmp_path):
    # a quoted label holding a line break spans lines 3 and 4
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        'uni.ac.uk,uni,"University\nof York",Academia,Academia,University\n'
        "bad site,x,X,Industry,KnowledgeBasedFirm,\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:5: bad site key ") as err:
        load_registry(p)
    assert err.value.line == 5
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        '"bad\nsite",x,X,Industry,KnowledgeBasedFirm,\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: bad site key "):
        load_registry(p)


def test_load_registry_reports_the_first_bad_row_in_file_order(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        "bad site,x,X,Industry,KnowledgeBasedFirm,\n"
        "short.com,short,S,Industry\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: bad site key ") as err:
        load_registry(p)
    assert err.value.line == 3
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        "short.com,short,S,Industry\n"
        "bad site,x,X,Industry,KnowledgeBasedFirm,\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: expected 6 fields, got 4$"):
        load_registry(p)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_registry_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # Excel's plain "CSV" export writes Windows-1252, where é is byte 0xe9
    p = tmp_path / "reg.csv"
    text = ("site,actor_id,label,sector,category,role\n"
            "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
            "uni.ac.uk,uni,Café Uni,Academia,Academia,University\n")
    p.write_bytes(text.replace("\n", newline).encode("cp1252"))
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:3: byte 0xe9 is not UTF-8$") as err:
        load_registry(p)
    assert err.value.line == 3
    assert err.value.path == p


def test_load_registry_names_the_line_of_a_field_csv_refuses(tmp_path):
    # csv refuses a field of more than 128 KiB with its own csv.Error
    p = tmp_path / "reg.csv"
    p.write_text(CSV_OK + "a.com,a,\"" + "A" * 200_000 + "\",Industry,KnowledgeBasedFirm,\n",
                 encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:6: field larger than field limit"):
        load_registry(p)


def test_a_registry_error_names_its_path_and_line(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(CSV_OK + "bad site,x,X,Industry,KnowledgeBasedFirm,\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_registry(str(p))
    assert str(err.value) == f"{p}:6: bad site key 'bad site'"
    assert (err.value.path, err.value.line) == (p, 6)
    assert isinstance(err.value, RegistryError)


def test_load_registry_reads_every_enum_value(tmp_path):
    # one actor for each category: each role once, each sector three times
    p = tmp_path / "reg.csv"
    rows = [f"a{i}.com,a{i},A{i},{sector.value},{category.value},{role.value}\n"
            for i, (sector, category, role) in enumerate(
                zip(list(Sector) * 3, TableCategory, FrameworkRole))]
    p.write_text("site,actor_id,label,sector,category,role\n" + "".join(rows), encoding="utf-8")
    reg = load_registry(p)
    assert [(a.sector, a.category, a.role) for a in reg] == list(
        zip(list(Sector) * 3, TableCategory, FrameworkRole))


@pytest.mark.parametrize("column, enum", [
    ("sector", Sector), ("category", TableCategory), ("role", FrameworkRole),
])
def test_load_registry_refuses_a_case_changed_or_misspelt_enum_value(tmp_path, column, enum):
    p = tmp_path / "reg.csv"
    good = {"sector": "Industry", "category": "KnowledgeBasedFirm", "role": "Investor"}
    for member in enum:
        for bad in (member.value.lower(), member.value.upper(), member.value[:-1],
                    member.value + "s"):
            row = {**good, column: bad}
            p.write_text(
                "site,actor_id,label,sector,category,role\n"
                "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
                f"a.com,a,A,{row['sector']},{row['category']},{row['role']}\n",
                encoding="utf-8",
            )
            with pytest.raises(ValueError) as enum_error:
                enum(bad)
            with pytest.raises(ParseError) as err:
                load_registry(p)
            assert str(err.value) == f"{p}:3: {enum_error.value}"


def test_load_registry_inconsistent_actor_rows(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        "a.com,act,A,Industry,KnowledgeBasedFirm,\n"
        "b.com,act,A,Industry,ServiceBasedFirm,\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        load_registry(p)
    assert err.value.line == 4


def test_registry_orders_actors_by_id_whatever_the_input_order(tmp_path):
    actors = [SEED] + [_actor(f"a{i}.com", [f"a{i}.com"]) for i in (3, 1, 2)]
    ids = sorted(actor.id for actor in actors)
    for n, reg in enumerate((Registry(actors), Registry(actors[::-1]))):
        assert [actor.id for actor in reg] == ids
        assert [actor.id for actor in reg.actors()] == ids
        write_registry(reg, tmp_path / f"{n}.csv")
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
