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

from .urls import InputError, SiteKey, input_lines


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


class ParseError(RegistryError, InputError):
    """A classification file that cannot be read: ``<path>:<line>: <reason>``."""


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

# each enum's members by value, for the cells of a classification file
_SECTORS = {member.value: member for member in Sector}
_CATEGORIES = {member.value: member for member in TableCategory}
_ROLES = {member.value: member for member in FrameworkRole}


def load_registry(path: str | Path) -> Registry:
    """Load a classification CSV into a validated Registry.

    Expected header: ``site,actor_id,label,sector,category,role``. One row
    per site; rows sharing an actor_id must agree on label, sector,
    category and role. Role may be empty. A site is stripped and read by
    ``SiteKey.parse``, so a name written in Unicode is keyed by its
    ``xn--`` form, as a crawled or harvested host is.

    The file is read by ``urls.input_lines``. The first bad row in file
    order stops the load with a ``ParseError`` naming the physical line on
    which that row starts, so a quoted cell holding a line break does not
    shift the lines of the rows after it; so does a byte that is not UTF-8.
    """
    path = Path(path)
    fields: dict[str, tuple] = {}  # actor id -> (label, sector, category, role)
    sites: dict[str, list[SiteKey]] = {}
    try:
        with input_lines(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(path, 1, "empty classification file")
            if [h.strip() for h in header] != REGISTRY_HEADER:
                raise InputError(path, 1, f"bad header {header!r}; expected {REGISTRY_HEADER!r}")
            end = reader.line_num  # the physical line the last row read ends on
            for raw in reader:
                line_no, end = end + 1, reader.line_num
                cells = list(map(str.strip, raw))
                if not any(cells):
                    continue
                if len(cells) != len(REGISTRY_HEADER):
                    raise InputError(path, line_no,
                                     f"expected {len(REGISTRY_HEADER)} fields, got {len(cells)}")
                site, actor_id, label, sector, category, role = cells
                # each value's own type refuses a bad cell
                try:
                    key = SiteKey.parse(site)
                    if not actor_id:
                        raise ValueError("empty actor_id")
                    # a table hit skips the Enum call; a miss makes it, to
                    # raise the Enum's own error
                    row = (label, _SECTORS.get(sector) or Sector(sector),
                           _CATEGORIES.get(category) or TableCategory(category),
                           (_ROLES.get(role) or FrameworkRole(role)) if role else None)
                except ValueError as exc:
                    raise InputError(path, line_no, str(exc)) from None
                known = fields.setdefault(actor_id, row)
                if known is row:  # the actor's first row
                    sites[actor_id] = [key]
                elif known == row:
                    sites[actor_id].append(key)
                else:
                    name, old, new = next(d for d in zip(REGISTRY_HEADER[2:], known, row)
                                          if d[1] != d[2])
                    raise InputError(path, line_no,
                                     f"actor {actor_id!r} redefines {name} ({old} != {new})")
    except csv.Error as exc:  # a field past csv's size limit, say
        raise ParseError(path, reader.line_num, str(exc)) from None
    except InputError as exc:
        raise ParseError(path, exc.line, exc.reason) from None
    return Registry(Actor(actor_id, frozenset(sites[actor_id]), *row)
                    for actor_id, row in fields.items())


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
