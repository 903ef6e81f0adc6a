from __future__ import annotations

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
    p.write_text(CSV_OK)
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
        "wlv.ac.uk,a2,A2,Academia,Academia,\n"
    )
    with pytest.raises(DuplicateSite):
        load_registry(p)


def test_load_registry_missing_seed(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "wlv.ac.uk,a1,A1,Academia,Academia,\n"
    )
    with pytest.raises(MissingSeed):
        load_registry(p)


def test_load_registry_parse_errors(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text("not,the,right,header\n")
    with pytest.raises(ParseError):
        load_registry(p)

    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "a.com,a.com,A,Industry,NoSuchCategory,\n"
    )
    with pytest.raises(ParseError) as err:
        load_registry(p)
    assert err.value.line == 2

    # a site cell holds one site key: two sites, or none, stop the load on its line
    for cell in ("uni.ac.uk; york.ac.uk", "  "):
        p.write_text(
            "site,actor_id,label,sector,category,role\n"
            "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
            f"{cell},uni,U,Academia,Academia,University\n"
        )
        with pytest.raises(ParseError, match="^line 3: bad site key ") as err:
            load_registry(p)
        assert err.value.line == 3


def test_load_registry_tolerates_case_and_padding_in_site_cells(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        " Park.CO.uk ,park.co.uk,P,Government,SciencePark,\n"
    )
    reg = load_registry(p)
    assert resolve(SiteKey("park.co.uk"), reg).id == "park.co.uk"


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
    with pytest.raises(ParseError, match="^line 3: cannot encode ") as err:
        load_registry(p)
    assert err.value.line == 3


def test_load_registry_inconsistent_actor_rows(tmp_path):
    p = tmp_path / "reg.csv"
    p.write_text(
        "site,actor_id,label,sector,category,role\n"
        "park.co.uk,park.co.uk,P,Government,SciencePark,\n"
        "a.com,act,A,Industry,KnowledgeBasedFirm,\n"
        "b.com,act,A,Industry,ServiceBasedFirm,\n"
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
