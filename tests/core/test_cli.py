"""Command-line interface."""

import os

import pytest

from repro.cli import main
from repro.core.keytool import load_replica_keys

ZONE = """
$ORIGIN cli.example.
$TTL 300
@ IN SOA ns.cli.example. admin.cli.example. 1 2 3 4 5
  IN NS ns
ns IN A 10.0.0.1
www IN A 10.0.0.80
"""


@pytest.fixture()
def zone_file(tmp_path):
    path = tmp_path / "zone.db"
    path.write_text(ZONE)
    return str(path)


class TestKeygen:
    def test_writes_key_files(self, tmp_path, capsys):
        out = str(tmp_path / "keys")
        assert main(["keygen", "-n", "4", "-t", "1", "--bits", "512", "--out", out]) == 0
        files = sorted(os.listdir(out))
        assert files == [f"replica-{i}.keys" for i in range(4)]
        captured = capsys.readouterr().out
        assert "-bit RSA, (4,1)-shared" in captured

    def test_auth_keys_follow_bits(self, tmp_path):
        """``--bits`` sizes the authenticator keys too: 1024-bit, three primes."""
        out = str(tmp_path / "keys")
        assert main(["keygen", "--bits", "1024", "--out", out]) == 0
        moduli = set()
        for i in range(4):
            private = load_replica_keys(os.path.join(out, f"replica-{i}.keys")).auth_key.private
            assert private.modulus.bit_length() == 1024
            assert len(private.primes) == 3
            moduli.add(private.modulus)
        assert len(moduli) == 4


class TestSignVerify:
    def test_signzone_then_verifyzone(self, zone_file, capsys):
        assert main(["signzone", zone_file, "--bits", "512"]) == 0
        signed = zone_file + ".signed"
        assert os.path.exists(signed)
        assert main(["verifyzone", signed]) == 0
        captured = capsys.readouterr().out
        assert "OK:" in captured

    def test_verifyzone_unsigned_fails(self, zone_file, capsys):
        assert main(["verifyzone", zone_file]) == 1


class TestDig:
    def test_existing_name(self, zone_file, capsys):
        code = main(["dig", "www.cli.example.", "A", "--zone-file", zone_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "10.0.0.80" in out
        assert "signatures verified: True" in out

    def test_missing_name(self, zone_file, capsys):
        code = main(["dig", "nope.cli.example.", "A", "--zone-file", zone_file])
        assert code == 1
        assert "NXDOMAIN" in capsys.readouterr().out


class TestNsupdate:
    def test_add(self, zone_file, capsys):
        code = main(
            ["nsupdate", "add", "new.cli.example.", "A", "10.0.0.9",
             "--zone-file", zone_file]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rcode: NOERROR" in out
        assert "consistent: True" in out

    def test_delete(self, zone_file, capsys):
        code = main(
            ["nsupdate", "delete", "www.cli.example.", "--zone-file", zone_file]
        )
        assert code == 0
        assert "NOERROR" in capsys.readouterr().out

    def test_add_without_rdata(self, zone_file, capsys):
        code = main(
            ["nsupdate", "add", "new.cli.example.", "A", "--zone-file", zone_file]
        )
        assert code == 2


class TestBench:
    def test_one_cell(self, capsys):
        code = main(
            ["bench", "-n", "4", "-t", "1", "--protocol", "optte",
             "--repetitions", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "read" in out and "add" in out and "delete" in out
