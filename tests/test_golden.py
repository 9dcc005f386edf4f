"""Byte-identity of the documents: sha256 of the CLI output and of the preset scenario files.

The digests pin every byte of `classify ... --format json`, of
`verify ... --format json`, of `forge ... --format json`, of the text
stdout of the ladder's classify commands and of `verify`, and of
`serialize_scenario` on the four verify presets and on the larger
preset rungs (which carry the D generators and the slopes), so a
refactor that changes any value, key or ordering fails here.  The
largest document, ramified g'=7, is hashed as it streams from a
grandchild process, whose peak RSS must stay under 100 MB.  A change
that is meant to alter a document updates its digest and says why.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from weiltate import cli, forge, galois

GOLDEN = {
    ("main", "--g", "4"): "0b846ff8cd4dacfef7ea6b33f9b8702818ae38d46f8b04ff622a1a1e94093666",
    ("main", "--g", "6"): "428c89af7c32b80fa280e25a1af6c5febc375189a9453e4f20a00905edae4272",
    ("ramified", "--gp", "3"): "bd3e03629685720a6e96f7e59dd0f6215b715e4350d88a823eac7c4bb1749d3b",
    ("split", "--gp", "3"): "a9b03aa1dc779f5baa7c932076a1f466535a83f6707496e52a3be2128d85050d",
    ("main", "--g", "8"): "74432bb13640ff4fc6f09a58a08f0462f29eecbff847fcd5bc4d0a74087d451d",
}

GOLDEN_ARGV = {
    ("classify", "--preset", "ramified", "--gp", "3", "--weights", "6"):
        "27330a6f16015bf4c877a671444fc7cf882205e7750313148e572283fe5f7a18",
    ("classify", "--preset", "split", "--gp", "3", "--weights", "6"):
        "4762c70dace270a0237cabbc663c5daf80f46683a0b5331517d6bd3e668d582c",
    ("classify", "--preset", "ramified", "--gp", "5", "--cap", "20"):
        "b585cdc6ae5f75479e8e12df5bbde1dff1b9411bced10d01791380be9ea78a3a",
    ("classify", "--preset", "split", "--gp", "5", "--cap", "20"):
        "ffc040e8280e9d5a0e1599e8a23bfb4192efb5eeecb6393d94e2e41958b17c82",
    # 28 points: 14-bit half tables; 4,030,408 bytes
    ("classify", "--preset", "split", "--gp", "7", "--cap", "28"):
        "f8e15980693c3ef0f7336dfc5938fdd1998edbfdaa96e8f51979e1f154de149a",
    # the exact commands of the benchmark ladder (perfbench/ladder.py)
    ("classify", "--preset", "main", "--g", "6", "--weights", "0,2,4,6,8,10,12"):
        "4f603a1e39719a7ce8dd4f6fcbdd6c1d0066cd4d180a05d67ea97cb3634422b1",
    ("classify", "--preset", "ramified", "--gp", "3", "--weights", "0,2,4,6,8,10,12"):
        "9f5ac2b7acaa98a5f7c608470d6dece3e4e8fd4a0c4bf1cda58a743f398a072c",
    ("classify", "--preset", "split", "--gp", "3", "--weights", "0,2,4,6,8,10,12"):
        "c956a25b3f46682d9a37fae6636ebc9e6d0dcb43599b29ba3762fac4ddce76ef",
    ("classify", "--preset", "ramified", "--gp", "5", "--cap", "20",
     "--weights", "0,2,4,6,8,10,12,14,16,18,20"):
        "3e6dda48ccfb54453c483e233194ff381153fd56639075d726c8bd6458d57cc2",
    ("classify", "--preset", "split", "--gp", "5", "--cap", "20",
     "--weights", "0,2,4,6,8,10,12,14,16,18,20"):
        "a5664792556f5eb355b68756345a7510bf7f82a0c93c6bdcd030412c3c6efe01",
    # the one preset document that carries forged-field metadata
    ("classify", "--preset", "main", "--g", "4", "--attach-fields"):
        "1b4cf1de1e8e2a2dfebfcb99de68fb0083ef5f98f20a453744c29ed6c787911d",
    ("verify", "--presets", "all"):
        "f23123bf2e935173e7e2e68486af28058366b284b47192479bfae578f2035200",
    # forge at large primes: l' = 2**31 - 1 and p = 2**31 - 1, the largest primes below 2**31
    ("forge", "--g", "6", "--p", "5", "--l", "65537", "--lp", "2147483647"):
        "1377157255b3fe3bfa08e4828df27212398a983a64cc21c4c356f8a9b42cc839",
    ("forge", "--g", "12", "--p", "2147483647", "--l", "65537", "--lp", "65539"):
        "34019b9c8f08a77618d82834110d51aa2e755037672784e0c17b4f51da738de6",
    # and past 2**31: p = 2**61 - 1, l = 2**31 + 11, l' = 10**12 + 39
    ("forge", "--g", "12", "--p", "2305843009213693951", "--l", "2147483659",
     "--lp", "1000000000039"):
        "523775d40f6eddc3fd3bc631d5a2b1d63c9c54872c2ce8299debc759125fcc5c",
}

# `--format text` stdout of the ladder's classify commands and of verify
GOLDEN_TEXT = {
    ("classify", "--preset", "main", "--g", "4"):
        "87a0b849098dbb9e1ebb6c7271c139d6e04cca8d16fdd4d231ae84219ce82a2d",
    ("classify", "--preset", "main", "--g", "6"):
        "048615dcf6f32ebbf9266fb87d007b6fa61606a4a699e2804a6c3011e1e96af2",
    ("classify", "--preset", "ramified", "--gp", "3"):
        "c28394e55a1970928dcc409533c6fd4956fdac3c353707eb58556785b006281c",
    ("classify", "--preset", "split", "--gp", "3"):
        "e5cd4ac867c300107801cd5138db4b4f2322fef96a3ce7e6e8ea2ec5c65c8b67",
    ("classify", "--preset", "main", "--g", "8"):
        "32bccb169adacc9cb1d05dc2ce1839fd52038d5e5af2e42f10b9b3ddaf34dec2",
    ("classify", "--preset", "ramified", "--gp", "3", "--weights", "6"):
        "43406d4c27c0d37e679b68aa75a1c640f762fce38cf3b7b68030f3d8b15d246d",
    ("classify", "--preset", "split", "--gp", "3", "--weights", "6"):
        "9d320c62e552fad53a6851d3deba435670f808d6bec93418cd00be2e3eb183d7",
    ("classify", "--preset", "ramified", "--gp", "5", "--cap", "20"):
        "7cad9409c3027fbe3a127f292e8524736d2f2d74674459c6c03bc4e8f63a56df",
    ("classify", "--preset", "split", "--gp", "5", "--cap", "20"):
        "d661f72f2e35db3c7833d8d89f004390da8805ff52b88992ed615c0e0bb9e000",
    ("classify", "--preset", "main", "--g", "6", "--weights", "0,2,4,6,8,10,12"):
        "83dde5911da9f37527ca5b86ed9bf276b5fdfd16efe4517083834c03a1592c3e",
    ("classify", "--preset", "ramified", "--gp", "3", "--weights", "0,2,4,6,8,10,12"):
        "7092f793574f6ebcd2b487cb583eeac5cf4ac8863c6ae7ad53ef14ac980ca5e5",
    ("classify", "--preset", "split", "--gp", "3", "--weights", "0,2,4,6,8,10,12"):
        "d9c7d07055b0a43af0b8ea4dc92dc974d8bfa67f704a24ec2e7a8583b1c142c3",
    ("classify", "--preset", "ramified", "--gp", "5", "--cap", "20",
     "--weights", "0,2,4,6,8,10,12,14,16,18,20"):
        "43f360458343e9bbfa79dbea19e92eaca4ba8ef9fd37b0a0c9500a37277f5f33",
    ("classify", "--preset", "split", "--gp", "5", "--cap", "20",
     "--weights", "0,2,4,6,8,10,12,14,16,18,20"):
        "13a1cafebca930f9c9b277d2460b34798d51869092f6a8b7b3aebdcee7ca7f7f",
    ("classify", "--preset", "main", "--g", "4", "--attach-fields"):
        "69cd1c3d0a7a287de633c89c3094cc9c1f622b466184f16f9549f5f17a5eaf5f",
    ("verify", "--presets", "all"):
        "1c6abecb344f8bd77dc30b087475c2c0d0526d4fe220d63e03babcde41d626ce",
}

GOLDEN_FORGE = {
    # (g, l, l', seed) with p = 5; l, l' are the two smallest primes above g other than 5
    (4, 7, 11, 0): "5da9c089aef691d585b53ef12ede5f3f99d58501cc78a1abd2533211325f53a6",
    (4, 7, 11, 1): "359a3f61b0e306cb1344f7884abac2effac1a75b3525a88067aaf46a32cd6aff",
    (4, 7, 11, 2): "5bcc0ecefaf4ee478130d78cd61d40d40d63f1be0c5b25897734514b14728fd0",
    (6, 7, 11, 0): "5f6dc9176a464cd784b4d60fcb209ed3f7a5737c27774ca6333f61d11e04f9d4",
    (6, 7, 11, 1): "5a28cab124e54720e05e14b431c80d64ced572ce9f1196969c99a3dac35f1b8f",
    (6, 7, 11, 2): "6d56bb9c9c9da9dbb141d9e4a955c3a18aaec9159b87f72791323decd8e72157",
    (8, 11, 13, 0): "58da2cef423500ea48a6c25a905392f4203b0807ede937093ee14fd6ccaaefc1",
    (8, 11, 13, 1): "238550308e8d5216e51d36719d273c4b0728f6cc0d82c050a52db77d287b84a1",
    (8, 11, 13, 2): "e58f3592b72c55f811f9f09137914ebfd89e3fee80450f057ef0ec1e6140a381",
    (10, 11, 13, 0): "0281ca99f30b087378354053f9ea317a8986a0cd8ae00b54cf9955927e80bcd4",
    (10, 11, 13, 1): "1beab7a0455686e3d74f2917988f20fe062c107f89a15afea0c9931ae5599b32",
    (10, 11, 13, 2): "2557620716cd4e5726de887bf117c37e2d1a3fb3f43268d544b34ccca0466647",
    (12, 13, 17, 0): "d711bd06cb57b35d92c1f67709f8a4e9b633fc9d1071e9d5af536b84c755407c",
    (12, 13, 17, 1): "b44cafac8100938b48f4953d99741ee8c17905c591f27ab277c82d65abc35401",
    (12, 13, 17, 2): "f33ce51e0099dd7e5611addd4d29432f9abb7c43a952ce14c0405f80c0ee3a1e",
    # past the ladder: the Frobenius rows mod 37 run 30 times 37 unreduced shifts each
    (32, 37, 41, 0): "7399a5590a89be1fc99a0b8604f32350d2d7c076d73edd851b21e6933cfaddef",
}

# 68,322,911 bytes: 309 orbits of 279,938 members; weights 16..28 are built as complements
RAMIFIED7_ARGV = ("classify", "--preset", "ramified", "--gp", "7", "--cap", "28", "--format", "json")
RAMIFIED7_DIGEST = "beb7aadbc15d7c6d711a05a7cc0df9b21d6463dc8bb35180fa9d4a0e3cf1467a"

FORGE_ARGV = ("forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11", "--seed", "0")

GOLDEN_SCENARIO_FILES = {
    "main4": "b689a7844f4092936205296549ecbc460832fcbce44bb972cd0f0e3838efbab1",
    "main6": "a0d6cfea144783423536b9358b71881abc2da5ed8ed11a95478b2e3c8c66f7b0",
    "ramified3": "e0e4278c25596805ea40704e4a383680a075151e5401f48695789b2e0c341ae4",
    "split3": "0655bfd98e150597650f76ebddeff57769a41382a9ff751776f83725f8707113",
}

GOLDEN_PRESET_FILES = {
    # (family, g or g'), p = 5: the rungs above the verify presets
    ("main", 8): "51da9c6cccddd430e109c6ecc254be7782c7880dc94e90e52e1a358d215bef33",
    ("ramified", 5): "a10a69325066b26195aac447f1f94793157a133356025430d69517e94ccf47a1",
    ("split", 5): "65e330cdad54ed424d40068f68aa2da8fd51989c8e886e3db14d73767d5a613b",
    ("ramified", 7): "b5ff8071d5d8ca61cb770617f5a77492279742de34ea238471e17e0e27cda5f0",
    ("split", 7): "495d3a04612a0d7496570b926a3c4f79e00ef690c11e05e3bbf18d3ac24b8a82",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("preset", list(GOLDEN), ids=lambda p: p[0] + p[2])
def test_classify_json_digest(preset, capsys):
    code = cli.main(["classify", "--preset", *preset, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == GOLDEN[preset]


@pytest.mark.parametrize("argv", list(GOLDEN_ARGV), ids=lambda a: "-".join(a).replace("--", ""))
def test_cli_json_digest(argv, capsys):
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == GOLDEN_ARGV[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_TEXT), ids=lambda a: "-".join(a).replace("--", ""))
def test_cli_text_digest(argv, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == GOLDEN_TEXT[argv]


# A wrapper child: runs its argv as its own child, hashes that child's stdout as it streams
# and prints [exit code, length, sha256, peak RSS in MB].  RUSAGE_CHILDREN covers only the
# one child it waited for, so the peak is the command's own.
STREAM_HASHER = """
import hashlib, json, resource, subprocess, sys
digest, length = hashlib.sha256(), 0
with subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE) as child:
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
        length += len(chunk)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, in KiB elsewhere
print(json.dumps([child.returncode, length, digest.hexdigest(), peak * unit / 2**20]))
"""


def test_ramified7_json_digest_from_a_child_process():
    """The largest document streams out: its peak RSS stays far below its 68 MB of text."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-c", STREAM_HASHER, sys.executable, "-m", "weiltate.cli",
            *RAMIFIED7_ARGV]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, length, digest, peak_mb = json.loads(done.stdout)
    assert code == 0, done.stderr
    assert length == 68_322_911
    assert digest == RAMIFIED7_DIGEST
    assert peak_mb <= 100


def _forge_argv(key) -> list:
    g, l, lp, seed = key
    return ["forge", "--g", str(g), "--p", "5", "--l", str(l), "--lp", str(lp), "--seed", str(seed)]


# Run in a child by each interpreter, stdlib only: [argv, sha256] pairs come on stdin as
# JSON, and it prints its version and each argv whose exit code or stdout differs.
DIGEST_CHECKER = """
import contextlib, hashlib, io, json, sys
from weiltate import cli
wrong = []
for argv, digest in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
        wrong.append(argv)
print(json.dumps(["%d.%d.%d" % sys.version_info[:3], wrong]))
"""


def test_cli_digests_hold_under_every_python_on_the_path(record_property):
    """The CLI digests hold under this interpreter and each `python3.1X` on the PATH.

    The pins are `GOLDEN`, `GOLDEN_ARGV`, `GOLDEN_FORGE` and `GOLDEN_TEXT`,
    recomputed through `cli.main` in a bare child (`-I -S`) of each.
    The writer takes `encode_basestring_ascii` from `_json`, a CPython
    internal.  A name found on the PATH that does not start (a version
    manager's shim for a version it does not select) is reported, not run.
    """
    pairs = [[["classify", "--preset", *preset, "--format", "json"], digest]
             for preset, digest in GOLDEN.items()]
    pairs += [[[*argv, "--format", "json"], digest] for argv, digest in GOLDEN_ARGV.items()]
    pairs += [[[*_forge_argv(key), "--format", "json"], d] for key, d in GOLDEN_FORGE.items()]
    pairs += [[list(argv), digest] for argv, digest in GOLDEN_TEXT.items()]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    prefix = f"import sys; sys.path.insert(0, {src!r})\n"
    found = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    ran, not_started = {}, []
    for path in [sys.executable] + [path for path in found if path]:
        probe = subprocess.run(
            [path, "-I", "-S", "-c", "import sys; print('%d.%d.%d' % sys.version_info[:3])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            not_started.append(path)
            continue
        if probe.stdout.strip() in ran:
            continue
        done = subprocess.run([path, "-I", "-S", "-c", prefix + DIGEST_CHECKER],
                              input=json.dumps(pairs), capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, (path, done.stderr)
        version, wrong = json.loads(done.stdout)
        assert wrong == [], (path, version)
        ran[version] = path
    names = ", ".join(f"{version} ({path})" for version, path in sorted(ran.items()))
    record_property("interpreters", names)
    print(f"ran under {names}; found but did not start: {', '.join(not_started) or 'none'}")

@pytest.mark.parametrize("key", list(GOLDEN_FORGE), ids=lambda k: "g%d-l%d-lp%d-seed%d" % k)
def test_forge_json_digest(key, capsys):
    code = cli.main([*_forge_argv(key), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == GOLDEN_FORGE[key]


@pytest.mark.parametrize("name", list(GOLDEN_SCENARIO_FILES))
def test_serialized_preset_digest(name):
    family, size = cli.VERIFY_PRESETS[name]
    scn = forge.PRESETS[family](size, 5)
    assert _sha256(forge.serialize_scenario(scn)) == GOLDEN_SCENARIO_FILES[name]


@pytest.mark.parametrize("key", list(GOLDEN_PRESET_FILES), ids=lambda k: "%s%d" % k)
def test_serialized_large_preset_digest(key):
    family, size = key
    scn = forge.PRESETS[family](size, 5, subset_cap=28)  # 28 points at g' = 7, the most
    assert _sha256(forge.serialize_scenario(scn)) == GOLDEN_PRESET_FILES[key]


def test_documents_list_no_group_element(capsys):
    """classify, forge, verify and the scenario files run on the chains alone."""
    assert not hasattr(galois.PermGroup, "elements")
    digests = {("classify", "--preset", *preset): d for preset, d in GOLDEN.items()}
    digests.update(GOLDEN_ARGV)
    digests[FORGE_ARGV] = GOLDEN_FORGE[(4, 7, 11, 0)]
    for argv in [("classify", "--preset", *preset) for preset in GOLDEN] + [
        ("classify", "--preset", "ramified", "--gp", "5", "--cap", "20"),
        ("classify", "--preset", "split", "--gp", "5", "--cap", "20"),
        ("verify", "--presets", "all"),
        ("classify", "--preset", "main", "--g", "4", "--attach-fields"),
        FORGE_ARGV,
    ]:
        code = cli.main([*argv, "--format", "json"])
        assert code == 0, argv
        out = capsys.readouterr().out
        assert argv not in digests or _sha256(out) == digests[argv], argv
    for name, digest in GOLDEN_SCENARIO_FILES.items():
        family, size = cli.VERIFY_PRESETS[name]
        scn = forge.PRESETS[family](size, 5)
        assert _sha256(forge.serialize_scenario(scn)) == digest
    for (family, size), digest in GOLDEN_PRESET_FILES.items():
        scn = forge.PRESETS[family](size, 5, subset_cap=28)  # 28 points at g' = 7, the most
        assert _sha256(forge.serialize_scenario(scn)) == digest

