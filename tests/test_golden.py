"""Byte-identity of the classify documents: sha256 of the JSON of four presets.

The digests pin every byte of `classify --preset ... --format json`, so a
refactor that changes any value, key or ordering fails here.  A change
that is meant to alter a document updates its digest and says why.
"""

import hashlib

import pytest

from weiltate import cli

GOLDEN = {
    ("main", "--g", "4"): "0b846ff8cd4dacfef7ea6b33f9b8702818ae38d46f8b04ff622a1a1e94093666",
    ("main", "--g", "6"): "428c89af7c32b80fa280e25a1af6c5febc375189a9453e4f20a00905edae4272",
    ("ramified", "--gp", "3"): "bd3e03629685720a6e96f7e59dd0f6215b715e4350d88a823eac7c4bb1749d3b",
    ("split", "--gp", "3"): "a9b03aa1dc779f5baa7c932076a1f466535a83f6707496e52a3be2128d85050d",
}


@pytest.mark.parametrize("preset", list(GOLDEN), ids=lambda p: p[0] + p[2])
def test_classify_json_digest(preset, capsys):
    code = cli.main(["classify", "--preset", *preset, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[preset]
