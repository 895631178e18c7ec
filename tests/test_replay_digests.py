import hashlib
import importlib.util
import json
from pathlib import Path

from abeldiff import cli

SPEC = importlib.util.spec_from_file_location(
    "replay_digests", Path(__file__).parent.parent / "tools" / "replay_digests.py")
replay_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(replay_digests)

CIRCLE = ["third-kind", "-f", "x^2+y^2-1", "--x1=0", "--x2=1/2", "--digits", "12"]


def test_a_digest_hashes_the_document_without_its_timings(capsys):
    ending, sha = replay_digests.digest(CIRCLE)
    assert cli.main(CIRCLE + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("timings")
    printed = json.dumps(doc, separators=(",", ":"))   # the CLI's separators
    assert (ending, sha) == ("0", hashlib.sha256(printed.encode()).hexdigest())


def test_an_exception_that_escapes_the_cli_is_named(monkeypatch):
    def fail(argv):
        raise AssertionError("conjugate discs miss each other")
    monkeypatch.setattr(cli, "main", fail)
    assert replay_digests.digest(CIRCLE) == (
        "AssertionError", hashlib.sha256(b"").hexdigest())
