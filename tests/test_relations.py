"""Metamorphic relations over a whole study: the real pipeline runs twice,
on inputs that differ by a change that must not matter, and the outputs are
compared, so a relation needs no golden and no second implementation. Each
test names the stage its relation guards.
"""

from __future__ import annotations

import itertools
import re

from helixmap.harvest import Direction
from york import harvest_york_files, write_york_files, york_study


def _respelt(url: str, n: int) -> str:
    """``url``, an index line naming an http(s) URL or a bare host, spelt
    another way that names the same resource: its scheme's default port
    written out, a dot segment, the first character of its last path
    segment percent-encoded, and an empty query or a fragment. Any other
    line is returned as it is."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        if ":" in url.split("/")[0]:
            return url  # mailto:, javascript:
        scheme, rest = "", url  # a bare host, which a harvest reads as http
    host = re.match(r"[^/?#]*", rest).group()
    path, mark, query = rest[len(host):].partition("?")
    path = "/." + (path or "/")
    last = path.rfind("/") + 1
    if path[last:last + 1].isalnum():
        path = f"{path[:last]}%{ord(path[last]):02x}{path[last + 1:]}"
    port = "443" if scheme.lower() == "https" else "80"
    tail = f"?{query}#top" if mark else ("?" if n % 2 else "#top")
    return f"{scheme}{sep}{host}:{port}{path}{tail}"


def test_spelling_relation_guards_canonicalize_and_reduce_host(tmp_path):
    # ROADMAP item 3, relation 2: every index URL spelt another way gives
    # the link sets of the URLs as written
    study = york_study(0)
    (tmp_path / "written").mkdir()
    (tmp_path / "respelt").mkdir()
    written = write_york_files(study, tmp_path / "written")
    respelt = write_york_files(study, tmp_path / "respelt")
    spelt = itertools.count()
    for path in respelt.index.iterdir():
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(f"{_respelt(line, next(spelt))}\n" for line in lines),
                        encoding="utf-8")
    assert _respelt("HTTPS://WWW.a.test。/a/b/../c", 1) == (
        "HTTPS://WWW.a.test。:443/./a/b/../%63?")
    assert _respelt("a.test/about.html", 0) == "a.test:80/./%61bout.html#top"
    assert _respelt("https://x.test/s?q=1", 0) == "https://x.test:443/./%73?q=1#top"
    assert _respelt("mailto:a@b.test", 0) == "mailto:a@b.test"

    expected, found = harvest_york_files(written)[1], harvest_york_files(respelt)[1]
    for direction in Direction:
        assert found[direction].links == expected[direction].links, direction
        assert found[direction].skipped_urls == expected[direction].skipped_urls, direction
        assert len(expected[direction].links) > 100
