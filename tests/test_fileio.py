"""Round trips through the plain-text file formats."""

import re

import numpy as np
import pytest

from relsyn import DomainError, FirSystem, InfoStructure, ring_plant
from relsyn import fileio


class TestMatrixFormat:
    def test_roundtrip(self, tmp_path, rng):
        M = rng.normal(size=(3, 5))
        path = tmp_path / "m.mat"
        fileio.write_matrix(path, M)
        assert np.array_equal(fileio.read_matrix(path), M)

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "m.mat"
        fileio.write_matrix(path, np.eye(2))
        first = path.read_text().splitlines()[0]
        assert first == "2 2"

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(DomainError):
            fileio.read_matrix(path)


class TestFirFormat:
    def test_roundtrip(self, tmp_path, rng):
        f = FirSystem(rng.normal(size=(4, 2, 3)))
        path = tmp_path / "f.fir"
        fileio.write_fir(path, f)
        back = fileio.read_fir(path)
        assert back.horizon == 3
        assert np.array_equal(back.taps, f.taps)

    def test_header(self, tmp_path):
        path = tmp_path / "f.fir"
        fileio.write_fir(path, FirSystem.zero(2, 3, 5))
        assert path.read_text().splitlines()[0] == "2 3 5"


class TestStructureFormat:
    def test_roundtrip_with_inf(self, tmp_path):
        s = InfoStructure(np.array([[0.0, np.inf], [2.0, 1.0]]))
        path = tmp_path / "s.struct"
        fileio.write_structure(path, s)
        back = fileio.read_structure(path)
        assert np.array_equal(back.min_delay, s.min_delay)
        assert "inf" in path.read_text()


class TestPlantFormat:
    def test_roundtrip(self, tmp_path):
        plant = ring_plant(3, 0.4)
        path = tmp_path / "p.plant"
        fileio.write_plant(path, plant)
        blocks = fileio.read_plant(path)
        back = fileio.plant_from_blocks(blocks)
        for name in ("A", "B1", "B2", "C1", "D12", "C2"):
            assert np.array_equal(getattr(back, name), getattr(plant, name))

    def test_missing_block_rejected(self, tmp_path):
        path = tmp_path / "p.plant"
        path.write_text("A\n1 1\n0.5\n")
        with pytest.raises(DomainError):
            fileio.read_plant(path)

    @pytest.mark.parametrize("text", ["A 2\n", "A\n", "A 2 x\n1 2\n"])
    def test_truncated_header_rejected(self, tmp_path, text):
        path = tmp_path / "p.plant"
        path.write_text(text)
        with pytest.raises(DomainError, match="'rows cols' header"):
            fileio.read_plant(path)

    def test_c2_override(self, tmp_path):
        plant = ring_plant(3, 0.4)
        path = tmp_path / "p.plant"
        fileio.write_plant(path, plant)
        other = np.array([[1.0, -1.0, 0.0]])
        back = fileio.plant_from_blocks(fileio.read_plant(path), c2=other)
        assert np.array_equal(back.C2, other)


class TestNonNumericTokens:
    """Every reader turns a token it cannot convert into a DomainError
    that names the file, the line and the token."""

    @pytest.mark.parametrize(
        "reader, text, token",
        [
            (fileio.read_matrix, "2 x\n1 2\n", "x"),
            (fileio.read_matrix, "1 2\n1.5 y\n", "y"),
            (fileio.read_fir, "1 1 z\n", "z"),
            (fileio.read_fir, "1 1 0\nq\n", "q"),
            (fileio.read_structure, "1 2\n0 1.5\n", "1.5"),
            (fileio.read_structure, "1 w\n0\n", "w"),
            (fileio.read_plant, "A\n1 1\nx\n", "x"),
            (fileio.read_plant, "A\n1 1\n0.5\nB1\n1 1\n1e\n", "1e"),
        ],
    )
    def test_token_named(self, tmp_path, reader, text, token):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        line = next(
            k for k, body in enumerate(text.splitlines(), 1) if token in body.split()
        )
        pattern = rf"bad\.txt:{line}: expected .*'{re.escape(token)}'"
        with pytest.raises(DomainError, match=pattern):
            reader(path)

    @pytest.mark.parametrize("reader", [fileio.read_matrix, fileio.read_structure])
    def test_negative_size_rejected(self, tmp_path, reader):
        path = tmp_path / "neg.txt"
        path.write_text("-1 -2\n1 2\n")
        with pytest.raises(DomainError, match="negative size"):
            reader(path)


class TestErrorsNameTheLine:
    """Every reader's error reads ``path:line:`` and names the token it
    found there, or the end of the file."""

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (
                fileio.read_matrix,
                "2 2\n1 2\n3 4\n5\n",
                ":4: expected end of file after 4 entries, found '5'",
            ),
            (
                fileio.read_matrix,
                "# no header\n",
                ":1: expected an integer in the 'rows cols' header, found end of file",
            ),
            (
                fileio.read_fir,
                "1 1 1\n\n0.5\n",
                ":3: expected 2 entries for the taps, found end of file",
            ),
            (
                fileio.read_fir,
                "1 1 -1\n",
                ":1: negative size in the 'p m T' header, found '-1'",
            ),
            (
                fileio.read_structure,
                "1 2\n0 inf\n# tail\n7\n",
                ":4: expected end of file after 2 entries, found '7'",
            ),
            (
                fileio.read_plant,
                "A\n1 1\n0.5\nQ\n1 1\n2\n",
                ":4: expected a block name, one of A, B1, B2, C1, D12, C2, found 'Q'",
            ),
            (
                fileio.read_plant,
                "A\n1 1\n0.5\n",
                ":3: missing plant blocks ['B1', 'B2', 'C1', 'D12'], found end of file",
            ),
        ],
    )
    def test_line_and_token_named(self, tmp_path, reader, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DomainError) as err:
            reader(path)
        assert str(err.value) == f"{path}{message}"


class TestBundleFormat:
    def test_parse_and_paths(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("# a comment\nring = 4\ngamma = 0.3\nhorizon_q = 8\n")
        parsed = fileio.read_bundle(bundle)
        assert parsed["ring"] == "4"
        assert parsed["gamma"] == "0.3"
        assert parsed["_dir"] == str(tmp_path)

    def test_malformed_line_rejected(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("just words\n")
        with pytest.raises(DomainError):
            fileio.read_bundle(bundle)
