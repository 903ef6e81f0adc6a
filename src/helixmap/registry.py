"""Actor taxonomy and the site-to-actor registry.

An *actor* is an organisation with one or more web sites. Every actor
carries a sector (Industry / Academia / Government), one of the nine
cross-link matrix categories, and optionally one of the nine framework
roles. Category and role are independent labels: real networks hybridise
roles, so neither is ever inferred from the other.

The registry is the product of a human classification pass, persisted as
a CSV file. It is immutable after loading; a site key resolves to at most
one actor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .urls import SiteKey


class Sector(Enum):
    INDUSTRY = "Industry"
    ACADEMIA = "Academia"
    GOVERNMENT = "Government"


class TableCategory(Enum):
    """The nine actor categories of the cross-link matrix, in canonical row order."""

    SERVICE_BASED_FIRM = "ServiceBasedFirm"
    KNOWLEDGE_BASED_FIRM = "KnowledgeBasedFirm"
    CONSULTANTS_IP_TTO = "ConsultantsIpTto"
    BUSINESS_DEVELOPERS_INVESTORS = "BusinessDevelopersInvestors"
    ACADEMIA = "Academia"
    SUPPORT_STRUCTURE_ORGANIZATION = "SupportStructureOrganization"
    PUBLIC_NON_GOV_ORGANIZATION = "PublicNonGovOrganization"
    GOVERNMENT = "Government"
    SCIENCE_PARK = "SciencePark"

    @property
    def display_name(self) -> str:
        return _CATEGORY_DISPLAY[self]

    @property
    def index(self) -> int:
        return CATEGORY_ORDER.index(self)


CATEGORY_ORDER: tuple[TableCategory, ...] = tuple(TableCategory)

_CATEGORY_DISPLAY = {
    TableCategory.SERVICE_BASED_FIRM: "Service-based firm",
    TableCategory.KNOWLEDGE_BASED_FIRM: "Knowledge-based firm",
    TableCategory.CONSULTANTS_IP_TTO: "Consultants/IP-TTOs",
    TableCategory.BUSINESS_DEVELOPERS_INVESTORS: "Business Developers/Investors",
    TableCategory.ACADEMIA: "Academia",
    TableCategory.SUPPORT_STRUCTURE_ORGANIZATION: "Support Structure Organization",
    TableCategory.PUBLIC_NON_GOV_ORGANIZATION: "Public & Non-Gov. Organizations",
    TableCategory.GOVERNMENT: "Government",
    TableCategory.SCIENCE_PARK: "Science Park",
}


class FrameworkRole(Enum):
    """The nine expected actor roles of a science-park support network."""

    UNIVERSITY = "University"
    RESEARCH_CENTRE = "ResearchCentre"
    CONSULTING_ORGANIZATION = "ConsultingOrganization"
    TECHNOLOGY_TRANSFER_OFFICE = "TechnologyTransferOffice"
    INCUBATOR = "Incubator"
    INVESTOR = "Investor"
    GOVERNMENT_AGENCY = "GovernmentAgency"
    KNOWLEDGE_BASED_FIRM = "KnowledgeBasedFirm"
    SERVICE_BASED_FIRM = "ServiceBasedFirm"


class RegistryError(ValueError):
    """Base class for registry construction failures."""


class ParseError(RegistryError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateSite(RegistryError):
    def __init__(self, site: str, actor1: str, actor2: str):
        super().__init__(f"site {site!r} claimed by both {actor1!r} and {actor2!r}")
        self.site = site
        self.actor1 = actor1
        self.actor2 = actor2


class MissingSeed(RegistryError):
    """No science-park actor present: the registry has no seed."""


@dataclass(frozen=True)
class Actor:
    id: str
    sites: frozenset[SiteKey]
    label: str
    sector: Sector
    category: TableCategory
    role: FrameworkRole | None = None

    def __post_init__(self):
        if not self.sites:
            raise RegistryError(f"actor {self.id!r} has no sites")


class Registry:
    """Immutable set of classified actors with a unique science-park seed.

    Iteration and ``actors()`` yield the actors ordered by id.
    """

    def __init__(self, actors: Iterable[Actor]):
        self._actors: dict[str, Actor] = {}
        self._by_site: dict[str, Actor] = {}
        seeds = []
        for actor in actors:
            if actor.id in self._actors:
                raise RegistryError(f"duplicate actor id {actor.id!r}")
            self._actors[actor.id] = actor
            for site in actor.sites:
                owner = self._by_site.get(site.value)
                if owner is not None:
                    raise DuplicateSite(site.value, owner.id, actor.id)
                self._by_site[site.value] = actor
            if actor.category is TableCategory.SCIENCE_PARK:
                seeds.append(actor)
        if not seeds:
            raise MissingSeed("registry has no science-park actor")
        if len(seeds) > 1:
            raise RegistryError(
                f"registry has {len(seeds)} science-park actors; expected exactly one"
            )
        self.seed: str = seeds[0].id
        self._actors = {key: self._actors[key] for key in sorted(self._actors)}

    def __len__(self) -> int:
        return len(self._actors)

    def __contains__(self, actor_id: str) -> bool:
        return actor_id in self._actors

    def __iter__(self):
        return iter(self._actors.values())

    def actors(self) -> list[Actor]:
        return list(self._actors.values())

    def get(self, actor_id: str) -> Actor | None:
        return self._actors.get(actor_id)

    def category_counts(self) -> dict[TableCategory, int]:
        counts = {c: 0 for c in CATEGORY_ORDER}
        for actor in self._actors.values():
            counts[actor.category] += 1
        return counts


def resolve(site: SiteKey, reg: Registry) -> Actor | None:
    """The unique actor owning a site key, or None."""
    return reg._by_site.get(site.value)


REGISTRY_HEADER = ["site", "actor_id", "label", "sector", "category", "role"]


def load_registry(path: str | Path) -> Registry:
    """Load a classification CSV into a validated Registry.

    Expected header: ``site,actor_id,label,sector,category,role``. One row
    per site; rows sharing an actor_id must agree on label, sector,
    category and role. Role may be empty. A site is stripped and read by
    ``SiteKey.parse``, so a name written in Unicode is keyed by its
    ``xn--`` form, as a crawled or harvested host is.
    """
    rows = _read_rows(path)
    pending: dict[str, dict] = {}
    for line_no, row in rows:
        # each value's own type refuses a bad cell
        try:
            site = SiteKey.parse(row["site"].strip())
            actor_id = row["actor_id"].strip()
            if not actor_id:
                raise ValueError("empty actor_id")
            role = row["role"].strip()
            fields = {
                "label": row["label"].strip(),
                "sector": Sector(row["sector"].strip()),
                "category": TableCategory(row["category"].strip()),
                "role": FrameworkRole(role) if role else None,
            }
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        entry = pending.setdefault(actor_id, {"sites": [], **fields})
        for key, value in fields.items():
            if entry[key] != value:
                raise ParseError(
                    line_no, f"actor {actor_id!r} redefines {key} ({entry[key]} != {value})"
                )
        entry["sites"].append(site)

    actors = [
        Actor(
            id=actor_id,
            sites=frozenset(entry["sites"]),
            label=entry["label"],
            sector=entry["sector"],
            category=entry["category"],
            role=entry["role"],
        )
        for actor_id, entry in pending.items()
    ]
    return Registry(actors)


def _read_rows(path: str | Path) -> list[tuple[int, dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty classification file") from None
        if [h.strip() for h in header] != REGISTRY_HEADER:
            raise ParseError(1, f"bad header {header!r}; expected {REGISTRY_HEADER!r}")
        rows = []
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(REGISTRY_HEADER):
                raise ParseError(line_no, f"expected {len(REGISTRY_HEADER)} fields, got {len(raw)}")
            rows.append((line_no, dict(zip(REGISTRY_HEADER, raw))))
    return rows


def write_registry(reg: Registry, path: str | Path) -> None:
    """Write a Registry back to classification-CSV form (sorted, stable)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REGISTRY_HEADER)
        for actor in reg.actors():
            for site in sorted(actor.sites):
                writer.writerow(
                    [
                        site.value,
                        actor.id,
                        actor.label,
                        actor.sector.value,
                        actor.category.value,
                        actor.role.value if actor.role else "",
                    ]
                )
