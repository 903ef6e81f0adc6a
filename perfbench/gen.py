"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, pass number)`` and returns
both the files the program reads and the facts the reference checks need
(which host each URL names, which pages a crawl must reach). Nothing here
imports ``helixmap``: the expected outputs are known by construction.

Generated labels that stand for registrable names always carry a digit,
and suffix-rule labels never do, so a generated host can never collide
with a suffix rule by accident.
"""

from __future__ import annotations

import csv
import ipaddress
import random
from dataclasses import dataclass
from pathlib import Path

import idna

_CONS = "bcdfghklmnprstvz"
_VOW = "aeiou"

# the nine matrix categories in canonical order, as the registry CSV names them
CATEGORIES = (
    "ServiceBasedFirm", "KnowledgeBasedFirm", "ConsultantsIpTto",
    "BusinessDevelopersInvestors", "Academia", "SupportStructureOrganization",
    "PublicNonGovOrganization", "Government", "SciencePark",
)
SECTORS = ("Industry", "Academia", "Government")
ROLES = ("", "", "University", "Incubator", "Investor", "GovernmentAgency",
         "KnowledgeBasedFirm", "ServiceBasedFirm")
# actors per category in the York Science Park study (104 actors)
YORK_COUNTS = (24, 30, 9, 3, 5, 17, 14, 1, 1)

# a fixed first_seen for every record: the output CSVs must not depend on the clock
NOW = 1_700_000_000

# Hosts whose UTS #46 (non-transitional) form differs from the IDNA 2003 form.
# They are the same in every pass and every seed; the URLs naming them are the
# operations the index workload counts as failed while the program uses the
# IDNA 2003 codec.
DEVIATION_URLS = (
    "http://faß-strasse.de/kontakt",
    "https://www.straße.de/",
    "http://www.σοφός.gr/index.html",
    "http://bloß.de/a/b#c",
)

_IDN_SYLLABLES = ("mü", "ké", "lö", "ñá", "rä", "çe")


def rng_for(seed: int, pass_no: int, stream: str) -> random.Random:
    # a str seed is hashed with SHA-512, so this is stable across processes
    return random.Random(f"{seed}/{pass_no}/{stream}")


def word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONS) + rng.choice(_VOW) for _ in range(syllables))


def label(rng: random.Random) -> str:
    """A registrable-name label: letters with a digit, never a rule label."""
    return f"{word(rng, rng.randint(1, 3))}{rng.randint(0, 99)}"


def bundled_suffix_text(root: Path) -> str:
    return (root / "src" / "helixmap" / "data" / "public_suffix_snapshot.dat").read_text(
        encoding="utf-8"
    )


def bundled_generic_text(root: Path) -> str:
    return (root / "src" / "helixmap" / "data" / "generic_filter_default.txt").read_text(
        encoding="utf-8"
    )


def rule_lines(text: str) -> list[str]:
    return [
        line.split()[0].lower()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("//")
    ]


def generic_entries(text: str) -> list[str]:
    entries = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip().lower()
        if line:
            entries.append(line)
    return entries


# --- suffix list --------------------------------------------------------------


@dataclass
class SuffixList:
    text: str
    exact: list[str]          # plain rules usable under a new registrable label
    wild_bases: list[str]     # "b.c" for each "*.b.c"
    exceptions: list[str]     # "a.b.c" for each "!a.b.c"
    rule_count: int


def full_suffix_list(rng: random.Random, bundled_text: str) -> SuffixList:
    """A full-size (about 9k rules) list in public-suffix form: the bundled
    snapshot plus generated TLDs, second- and third-level rules, wildcards
    with exceptions, and private-section style rules."""
    bundled = rule_lines(bundled_text)
    used = set(bundled)
    lines = [f"// VERSION: synthetic-{rng.randrange(10**6):06d}", "// bundled snapshot"]
    lines += bundled
    exact = [r for r in bundled if not r.startswith(("*.", "!"))]
    wild_bases = [r[2:] for r in bundled if r.startswith("*.")]
    exceptions = [r[1:] for r in bundled if r.startswith("!")]

    def add(rule: str) -> bool:
        if rule in used:
            return False
        used.add(rule)
        lines.append(rule)
        return True

    lines.append("// generated top level")
    tlds = ["gr", "hu", "ro", "sk"]
    for tld in tlds:
        add(tld)
        exact.append(tld)
    while len(tlds) < 1300:
        tld = word(rng, rng.choice((1, 1, 2, 3)))
        if add(tld):
            tlds.append(tld)
            exact.append(tld)
    lines.append("// generated second and third level")
    countries = tlds[4:260]
    for cc in countries:
        seconds = ["co", "ac", "gov", "org", "net", "edu"]
        seconds += [word(rng, rng.randint(1, 2)) for _ in range(rng.randint(10, 22))]
        for sl in seconds:
            if add(f"{sl}.{cc}"):
                exact.append(f"{sl}.{cc}")
    for cc in countries[:80]:
        for _ in range(rng.randint(3, 6)):
            region = f"{word(rng, 3)}.{cc}"
            if not add(region):
                continue
            exact.append(region)
            for _ in range(rng.randint(2, 5)):
                rule = f"{word(rng, 2)}.{region}"
                if add(rule):
                    exact.append(rule)
    lines.append("// generated wildcards and exceptions")
    for cc in countries[80:140]:
        for _ in range(3):
            base = f"{word(rng, 4)}.{cc}"
            if base in used or not add(f"*.{base}"):
                continue
            wild_bases.append(base)
            for _ in range(rng.randint(1, 3)):
                city = f"{word(rng, 3)}.{base}"
                if add(f"!{city}"):
                    exceptions.append(city)
    lines.append("// generated private section")
    while len(used) < 9000:
        rule = f"{word(rng, rng.randint(2, 4))}.{rng.choice(('com', 'net', 'org', 'io'))}"
        if add(rule):
            exact.append(rule)
    # a registrable under an exact rule that is also a wildcard base would be a suffix
    bases = set(wild_bases)
    exact = [r for r in exact if r not in bases]
    return SuffixList("\n".join(lines) + "\n", exact, wild_bases, exceptions, len(used))


def registrable_under(rng: random.Random, psl: SuffixList, taken: set[str]) -> str:
    """A fresh registrable domain under an exact or a wildcard rule."""
    while True:
        if rng.random() < 0.12 and psl.wild_bases:
            domain = f"{label(rng)}.{label(rng)}.{rng.choice(psl.wild_bases)}"
        else:
            domain = f"{label(rng)}.{rng.choice(psl.exact)}"
        if domain not in taken:
            taken.add(domain)
            return domain


# --- URL forms ----------------------------------------------------------------


def url_for(rng: random.Random, host: str) -> str:
    """One raw index URL naming ``host`` (whose canonical form is ``host``
    itself, or its UTS #46 form for non-ASCII hosts), in a random surface form."""
    path = rng.choice(("/", "/about", "/news/2012/item.html", "/a/b/c"))
    form = rng.randrange(9)
    if form == 0:
        return f"http://{host}{path}"
    if form == 1:
        return f"https://{host}:443/x/./y/../z{path}#frag"
    if form == 2:
        return f"HTTP://{host.upper() if host.isascii() else host}{path}"
    if form == 3:
        return f"{host}{path}"  # bare host with a path
    if form == 4:
        return host  # bare host
    if form == 5:
        return f"http://{host}:80/index.html?q={rng.randint(0, 9)}"
    if form == 6:
        return f"https://{host}./deep/../page#top"  # trailing root dot
    if form == 7:
        return f"http://{host}/%7Euser/"
    return f"https://{host}{path}?utm=1#x"


def skipped_url(rng: random.Random, host: str) -> str:
    """A URL the program must reject: wrong scheme, userinfo or empty host."""
    return rng.choice((
        f"mailto:info@{host}",
        f"ftp://{host}/pub/file.txt",
        f"https://user:secret@{host}/",
        "javascript:void(0)",
        "http:///nohost/path",
        f"data:text/plain,{host}",
    ))


def canonical_host(host: str) -> str:
    host = host.rstrip(".").lower()
    if host.isascii():
        return host
    return idna.encode(host, uts46=True, transitional=False).decode("ascii")


# --- index-fullpsl --------------------------------------------------------------


@dataclass
class Actor:
    id: str
    category: str
    sites: list[str]


@dataclass
class IndexUrl:
    file_site: str      # the actor site whose index file lists the URL
    direction: str      # "in" or "out"
    raw: str
    host: str | None    # canonical host, None when the URL must be skipped


@dataclass
class IndexStudy:
    psl: SuffixList
    subdomain_exceptions: list[str]
    actors: list[Actor]
    generic: list[str]
    urls: list[IndexUrl]


# per-pass URL mix; the total is the same in every pass so that the share of
# failed URLs is the same in every run
INDEX_MIX = {"actor": 330, "stranger": 150, "idn": 6, "generic": 40,
             "skipped": 30, "ip": 6, "unknown_tld": 6}
INDEX_URLS_PER_PASS = sum(INDEX_MIX.values()) + len(DEVIATION_URLS)


def _york_actors(rng, psl, taken, sub_exceptions) -> list[Actor]:
    actors: list[Actor] = []
    n = 0
    for category, count in zip(CATEGORIES, YORK_COUNTS):
        for _ in range(count):
            actors.append(Actor(f"a{n:03d}", category, [registrable_under(rng, psl, taken)]))
            n += 1
    # one actor owns two sub-sites of a domain whose sub-domains the exception
    # file keeps apart, another owns its www sub-site; one actor owns a domain
    # named by an exception rule, and one owns a second domain
    uni = registrable_under(rng, psl, taken)
    sub_exceptions.append(uni)
    actors[rng.randrange(54, 59)].sites = [f"cs.{uni}", f"bio.{uni}"]
    actors[rng.randrange(59, 76)].sites.append(f"www.{uni}")
    if psl.exceptions:
        city = rng.choice(psl.exceptions)
        taken.add(city)
        actors[rng.randrange(0, 24)].sites.append(city)
    actors[rng.randrange(24, 54)].sites.append(registrable_under(rng, psl, taken))
    return actors


def _host_variant(rng: random.Random, site: str) -> str:
    return rng.choice((site, site, f"www.{site}", f"{word(rng, 2)}.{site}",
                       f"{word(rng, 1)}.{word(rng, 2)}.{site}"))


def index_study(seed: int, pass_no: int, bundled_text: str, generic_text: str) -> IndexStudy:
    """A York-scale study harvested from a snapshot index with a full-size list."""
    rng = rng_for(seed, pass_no, "index")
    psl = full_suffix_list(rng, bundled_text)
    taken: set[str] = set()
    sub_exceptions: list[str] = []
    actors = _york_actors(rng, psl, taken, sub_exceptions)
    generic = generic_entries(generic_text)
    sites = [s for a in actors for s in a.sites]
    seed_site = next(a for a in actors if a.category == "SciencePark").sites[0]
    weights = [1.0 / (i + 1) ** 0.7 for i in range(len(sites))]
    rng.shuffle(sites)
    urls: list[IndexUrl] = []

    def add(file_site: str, host: str | None, raw: str, direction: str | None = None):
        direction = direction or rng.choice(("in", "out"))
        urls.append(IndexUrl(file_site, direction, raw, host))

    # the seed links out to most actors, so pruning has work to do
    for site in sites:
        if site != seed_site and len(urls) < INDEX_MIX["actor"] // 3 and rng.random() < 0.9:
            host = _host_variant(rng, site)
            add(seed_site, canonical_host(host), url_for(rng, host), "out")
    while len(urls) < INDEX_MIX["actor"]:
        source, target = rng.choices(sites, weights, k=2)
        if rng.random() < 0.5:
            host = _host_variant(rng, source)
            add(target, canonical_host(host), url_for(rng, host), "in")
        else:
            host = _host_variant(rng, target)
            add(source, canonical_host(host), url_for(rng, host), "out")
    strangers = [registrable_under(rng, psl, taken) for _ in range(60)]
    for _ in range(INDEX_MIX["stranger"]):
        host = _host_variant(rng, rng.choice(strangers))
        add(rng.choice(sites), canonical_host(host), url_for(rng, host))
    for _ in range(INDEX_MIX["idn"]):
        idn = "".join(rng.choice(_IDN_SYLLABLES) for _ in range(2)) + str(rng.randint(0, 99))
        host = f"{idn}.{rng.choice(('de', 'fr', 'es', 'com'))}"
        add(rng.choice(sites), canonical_host(host), url_for(rng, host))
    for _ in range(INDEX_MIX["generic"]):
        host = _host_variant(rng, rng.choice(generic))
        add(rng.choice(sites), canonical_host(host), url_for(rng, host))
    for _ in range(INDEX_MIX["skipped"]):
        add(rng.choice(sites), None, skipped_url(rng, rng.choice(sites)))
    for _ in range(INDEX_MIX["ip"]):
        if rng.random() < 0.5:
            host = f"192.0.2.{rng.randint(1, 254)}"
            raw = f"http://{host}/{word(rng, 2)}"
        else:
            host = str(ipaddress.IPv6Address(f"2001:db8::{rng.randint(1, 65535):x}"))
            raw = f"http://[{host}]:8080/"
        add(rng.choice(sites), host, raw)
    for _ in range(INDEX_MIX["unknown_tld"]):
        host = _host_variant(rng, f"{label(rng)}.{word(rng, 1)}{rng.randint(0, 9)}")
        add(rng.choice(sites), host, url_for(rng, host))
    for raw in DEVIATION_URLS:
        host = raw.split("://", 1)[1].split("/", 1)[0]
        add(rng.choice(sites), canonical_host(host), raw)
    rng.shuffle(urls)
    return IndexStudy(psl, sub_exceptions, actors, generic, urls)


def write_registry(actors: list[Actor], path: Path, rng: random.Random) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["site", "actor_id", "label", "sector", "category", "role"])
        for actor in actors:
            sector = rng.choice(SECTORS)
            role = rng.choice(ROLES)
            for site in actor.sites:
                writer.writerow([site, actor.id, f"Actor {actor.id}", sector,
                                 actor.category, role])


def write_index_study(study: IndexStudy, directory: Path, seed: int, pass_no: int) -> None:
    rng = rng_for(seed, pass_no, "index-files")
    (directory / "suffixes.dat").write_text(study.psl.text, encoding="utf-8")
    (directory / "subdomains.txt").write_text(
        "# registrable domains whose sub-sites are separate actors\n"
        + "".join(f"{d}\n" for d in study.subdomain_exceptions),
        encoding="utf-8",
    )
    (directory / "generic.txt").write_text(
        "# VERSION: bench\n" + "".join(f"{g}\n" for g in study.generic), encoding="utf-8"
    )
    write_registry(study.actors, directory / "registry.csv", rng)
    index = directory / "index"
    index.mkdir()
    files: dict[tuple[str, str], list[str]] = {}
    for url in study.urls:
        files.setdefault((url.file_site, url.direction), []).append(url.raw)
    for (site, direction), lines in files.items():
        (index / f"{site}.{direction}").write_text(
            "# snapshot lines\n" + "\n".join(lines) + "\n", encoding="utf-8"
        )


# --- network-scale ----------------------------------------------------------------


NET_ACTORS = 5000
NET_RECORDS_PER_DIRECTION = 100_000
NET_STRANGERS = 3000


@dataclass
class NetworkStudy:
    actors: list[Actor]
    generic: list[str]
    records: dict[str, list[tuple[str, str, str, int]]]  # direction -> rows as written


def network_study(seed: int, pass_no: int, generic_text: str) -> NetworkStudy:
    """Already-reduced link sets at large scale, with strangers, generic
    sites, self pairs, repeated pairs and a skewed degree distribution."""
    rng = rng_for(seed, pass_no, "network")
    suffixes = ("co.uk", "ac.uk", "com", "org", "de", "gov.uk", "net", "fr")
    actors: list[Actor] = []
    scale = (NET_ACTORS - 1) / (sum(YORK_COUNTS) - 1)
    counts = [round(c * scale) for c in YORK_COUNTS[:-1]]
    counts[0] += NET_ACTORS - 1 - sum(counts)
    n = 0
    for category, count in zip(CATEGORIES, counts + [1]):
        for _ in range(count):
            sites = [f"{word(rng, 2)}{n}.{rng.choice(suffixes)}"]
            if rng.random() < 0.05:
                sites.append(f"{word(rng, 2)}{n}x.{rng.choice(suffixes)}")
            actors.append(Actor(f"n{n:05d}", category, sites))
            n += 1
    generic = generic_entries(generic_text) + [f"portal{i}.com" for i in range(40)]
    sites = [s for a in actors for s in a.sites]
    rng.shuffle(sites)
    seed_site = actors[-1].sites[0]
    strangers = [f"{word(rng, 2)}{i}z.{rng.choice(suffixes)}" for i in range(NET_STRANGERS)]
    cum: list[float] = []
    total = 0.0
    for i in range(len(sites)):
        total += 1.0 / (i + 1) ** 0.8
        cum.append(total)
    records: dict[str, list[tuple[str, str, str, int]]] = {}
    for direction, tag in (("in", "InlinkIndex"), ("out", "OutlinkIndex")):
        count = NET_RECORDS_PER_DIRECTION
        actor_ends = rng.choices(sites, cum_weights=cum, k=count)
        other_ends = rng.choices(sites, cum_weights=cum, k=count)
        rows = []
        for i in range(count):
            r = rng.random()
            other = other_ends[i]
            if r < 0.18:
                other = strangers[rng.randrange(NET_STRANGERS)]
            elif r < 0.24:
                other = generic[rng.randrange(len(generic))]
            elif r < 0.25:
                other = actor_ends[i]  # self pair
            if direction == "in":
                pair = (other, actor_ends[i])
            else:
                pair = (seed_site if r > 0.985 else actor_ends[i], other)
            rows.append((pair[0], pair[1], tag, NOW - rng.randrange(10**6)))
        # a share of pairs is observed twice, once by a crawl, with another date
        for i in rng.sample(range(count), count // 20):
            source, target, _, first_seen = rows[i]
            rows.append((source, target, "Crawl", first_seen + rng.randint(-5000, 5000)))
        rng.shuffle(rows)
        records[direction] = rows
    return NetworkStudy(actors, generic, records)


def write_network_study(study: NetworkStudy, directory: Path, seed: int, pass_no: int) -> None:
    rng = rng_for(seed, pass_no, "network-files")
    write_registry(study.actors, directory / "registry.csv", rng)
    (directory / "generic.txt").write_text(
        "# VERSION: bench\n" + "".join(f"{g}\n" for g in study.generic), encoding="utf-8"
    )
    for direction, rows in study.records.items():
        with open(directory / f"{direction}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["source", "target", "provenance", "first_seen"])
            writer.writerows(rows)


# --- crawl-loopback ---------------------------------------------------------------

CRAWL_SITES = 5           # at most 10: the site index is one digit of the name
CRAWL_PAGES = 24          # /p/0.html .. /p/23.html besides the entry page
CRAWL_DEPTH = 3
CRAWL_HREFS = 40
CRAWL_MAX_PAGES = 10_000  # far above any site's page count: the cap never binds
ROBOTS_DISALLOW = "/private/"


def crawl_sites(seed: int, pass_no: int) -> list[str]:
    """The actor sites crawled in one pass. The pass number and the site
    index are in the name, so the fixture serves every pass from the Host
    header alone."""
    rng = rng_for(seed, pass_no, "crawl-sites")
    return [f"{word(rng, 2)}{pass_no}s{j}.co.uk" for j in range(CRAWL_SITES)]


def _site_of_host(host: str) -> str:
    # crawled sites are "<name>.co.uk"; every page host is one or "www." + one
    return ".".join(host.split(".")[-3:])


def _pass_of_site(site: str) -> int:
    # "<word><pass>s<j>": the word is letters ending in a vowel
    name = site.split(".", 1)[0]
    return int(name[:name.rindex("s")].lstrip(_CONS + _VOW))


def robots_rules(seed: int, site: str) -> tuple[str | None, list[str]]:
    """robots.txt text for a crawled site (None: the file is missing) and
    the path prefixes it disallows for every agent but ``otherbot``."""
    if site.split(".", 1)[0].endswith("s0"):
        return "User-agent: *\nDisallow: /\n", ["/"]  # one site per pass is closed
    if random.Random(f"{seed}/robots/{site}").random() < 0.25:
        return None, []
    return (
        f"User-agent: otherbot\nDisallow: /\n\nUser-agent: *\nDisallow: {ROBOTS_DISALLOW}\n",
        [ROBOTS_DISALLOW],
    )


def partner_host(site: str) -> str:
    """Where the off-site redirect of ``site`` lands; served by the fixture."""
    return f"www.partner-{site.split('.')[0]}.org"


def external_pool(seed: int, site: str) -> list[str]:
    """Hosts of other sites that the pages of ``site`` link to."""
    rng = random.Random(f"{seed}/external/{site}")
    pool = ["www.google.com", "twitter.com", "www.york.ac.uk", "192.0.2.10",
            f"{word(rng, 2)}3.zz"]
    pool += [f"www.{other}" for other in crawl_sites(seed, _pass_of_site(site)) if other != site]
    pool += [f"{word(rng, 2)}{i}.{rng.choice(('com', 'org', 'co.uk', 'de', 'ac.uk'))}"
             for i in range(10)]
    pool.append(f"www.{word(rng, 2)}7.school{rng.randint(0, 9)}.sch.uk")
    return pool


@dataclass
class Link:
    href: str
    target: str | None   # the canonical URL the href resolves to, None if skipped


def page_links(seed: int, host: str, path: str) -> list[Link]:
    """The hrefs of the HTML page at ``http://<host><path>``, with the
    canonical URL each one resolves to."""
    site = _site_of_host(host)
    rng = random.Random(f"{seed}/page/{site}{path}")
    base_dir = path.rsplit("/", 1)[0] + "/"
    pool = external_pool(seed, site)
    links: list[Link] = []
    for _ in range(CRAWL_HREFS):
        r = rng.random()
        i = rng.randrange(CRAWL_PAGES)
        page = f"/p/{i}.html"
        if r < 0.50:
            style = rng.randrange(6)
            if style == 0 and base_dir == "/p/":
                links.append(Link(f"{i}.html", f"http://{host}{page}"))
            elif style == 1:
                links.append(Link(f"/p/{i}.html#s{i}", f"http://{host}{page}"))
            elif style == 2 and base_dir == "/p/":
                links.append(Link(f"../p/./{i}.html", f"http://{host}{page}"))
            elif style == 3:
                links.append(Link(f"HTTP://{site.upper()}:80{page}", f"http://{site}{page}"))
            elif style == 4 and rng.random() < 0.15:
                links.append(Link(f"http://www.{site}{page}", f"http://www.{site}{page}"))
            else:
                links.append(Link(f"http://{site}{page}", f"http://{site}{page}"))
        elif r < 0.54:
            links.append(Link(f"/private/{i}.html", f"http://{host}/private/{i}.html"))
        elif r < 0.56:
            links.append(Link(f"/missing/{i}.html", f"http://{host}/missing/{i}.html"))
        elif r < 0.58:
            links.append(Link(f"/old/{i}.html", f"http://{host}/old/{i}.html"))
        elif r < 0.59:
            links.append(Link("/go/partner", f"http://{host}/go/partner"))
        elif r < 0.60:
            links.append(Link("/files/report.pdf", f"http://{host}/files/report.pdf"))
        elif r < 0.62:
            links.append(Link("#top", f"http://{host}{path}"))
        elif r < 0.90:
            url = f"{rng.choice(('http', 'https'))}://{rng.choice(pool)}/{word(rng, 2)}.html"
            links.append(Link(url, url))
        else:
            links.append(Link(rng.choice((
                f"mailto:office@{site}", "javascript:void(0)", "tel:+441904000000",
                f"ftp://files.{site}/pub/",
            )), None))
    return links


@dataclass
class Response:
    status: int
    content_type: str = "text/html; charset=utf-8"
    body: str = ""
    location: str | None = None   # absolute canonical URL of a redirect


def respond(seed: int, host: str, path: str) -> Response:
    """What the fixture serves for ``http://<host><path>``."""
    if host.startswith("www.partner-"):
        return Response(200, body="<html><body>partner</body></html>")
    site = _site_of_host(host)
    if path == "/robots.txt":
        text, _ = robots_rules(seed, site)
        if text is None:
            return Response(404, "text/plain", "no robots.txt")
        return Response(200, "text/plain", text)
    if path.startswith("/missing/"):
        return Response(404, "text/plain", "not found")
    if path.startswith("/old/"):
        return Response(301, "text/plain", location=f"http://{host}/p/{path[5:]}")
    if path == "/go/partner":
        return Response(302, "text/plain", location=f"http://{partner_host(site)}/")
    if path == "/files/report.pdf":
        return Response(200, "application/pdf", "%PDF-1.4 not parsed")
    if path == "/" or path.startswith(("/p/", "/private/")):
        first, *rest = page_links(seed, host, path)
        anchors = "\n".join(f'<li><a href="{link.href}">link {n}</a></li>'
                            for n, link in enumerate(rest))
        return Response(200, body=(
            "<!doctype html><html><head><title>page</title></head><body>\n"
            f'<h1>{host}{path}</h1><map name="m"><area href="{first.href}" alt=""></map>\n'
            f"<ul>\n{anchors}\n</ul></body></html>\n"
        ))
    return Response(404, "text/plain", "not found")


def crawl_registry(seed: int, pass_no: int) -> list[Actor]:
    """Actors of a crawl study: the crawled sites (the second one is the
    science park), York, and the partner sites that redirects land on."""
    rng = rng_for(seed, pass_no, "crawl-registry")
    sites = crawl_sites(seed, pass_no)
    actors = []
    for j, site in enumerate(sites):
        category = "SciencePark" if j == 1 else rng.choice(CATEGORIES[:-1])
        actors.append(Actor(f"c{j}", category, [site, partner_host(site)[4:]]))
    actors.append(Actor("york", "Academia", ["york.ac.uk"]))
    return actors
