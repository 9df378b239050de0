"""Lexical name checks: every path that accepts a user or group name accepts
exactly the language of a reference predicate written here, independently
of the implementation."""

import re

import pytest
from hypothesis import given, strategies as st

from dacs import wire
from dacs.rules import User, group_name_violations, subject_violations, user_name_violations
from dacs.server import RepositoryError, load_repository

USER_NAME = re.compile(r"[^\s|=]+")
GROUP_NAME = re.compile(r"[^\s|=,]+")

# the separators and whitespace the grammars care about, plus plain letters
EDGES = "aZ9_-.é:#[] |=,\t\n\r\x0b\x0c\x1c\x85\xa0 　"
ANY_CHAR = st.integers(0, 0x10FFFF).filter(lambda c: not 0xD800 <= c <= 0xDFFF).map(chr)
NAMES = st.text(st.one_of(st.sampled_from(EDGES), ANY_CHAR), max_size=6)


@pytest.fixture(scope="module")
def repo_file(tmp_path_factory):
    return tmp_path_factory.mktemp("names") / "repo.conf"


def accepts(call) -> bool:
    try:
        call()
    except (wire.WireError, RepositoryError):
        return False
    return True


def frame(payload: str) -> bytes:
    data = payload.encode("utf-8")
    return b"L:%d\n%s" % (len(data), data)


def loads(path, groups_line: str) -> bool:
    path.write_text(f"[policy]\npriority=user\n[groups]\n{groups_line}\n", encoding="utf-8")
    return accepts(lambda: load_repository(path))


@given(NAMES)
def test_every_user_name_path_accepts_the_reference_language(repo_file, name):
    expected = USER_NAME.fullmatch(name) is not None
    paths = {
        "rules.user_name_violations": not user_name_violations(name),
        "rules.subject_violations": not subject_violations(User(name)),
        "wire.encode LOGIN": accepts(lambda: wire.encode(wire.Login(name, "1.2.3.4"))),
        "wire.decode LOGIN": accepts(
            lambda: wire.decode(frame(f"LOGIN\nuser={name}\nclient_ip=1.2.3.4\n"))
        ),
        "wire.encode IDENTITY": accepts(
            lambda: wire.encode(wire.IdentityNotice(name, "1.2.3.4", ()))
        ),
    }
    # the loader ends lines at LF, strips them, skips comments and splits at
    # the first '='
    if name == name.strip() and not set("\n=") & set(name) and name[:1] not in "#[":
        paths["server.load_repository [groups] user"] = loads(repo_file, f"{name}=G")
    assert paths == dict.fromkeys(paths, expected)


@given(NAMES)
def test_every_group_name_path_accepts_the_reference_language(repo_file, name):
    expected = GROUP_NAME.fullmatch(name) is not None
    paths = {
        "rules.group_name_violations": not group_name_violations(name),
        "wire.encode IDENTITY": accepts(
            lambda: wire.encode(wire.IdentityNotice("u", "1.2.3.4", (name,)))
        ),
    }
    # in a received list a ',' splits the name and a line feed ends the line
    if "," not in name and "\n" not in name:
        paths["wire.decode IDENTITY"] = accepts(
            lambda: wire.decode(frame(f"IDENTITY\nuser=u\nclient_ip=1.2.3.4\ngroups=G,{name},H\n"))
        )
        paths["server.load_repository [groups] group"] = loads(repo_file, f"u=G,{name},H")
    assert paths == dict.fromkeys(paths, expected)
