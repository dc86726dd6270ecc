"""Round trips through the plain-text file formats."""

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
    that names the file and the token."""

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
        with pytest.raises(DomainError, match=f"bad.txt: expected .*'{token}'"):
            reader(path)

    @pytest.mark.parametrize("reader", [fileio.read_matrix, fileio.read_structure])
    def test_negative_size_rejected(self, tmp_path, reader):
        path = tmp_path / "neg.txt"
        path.write_text("-1 -2\n1 2\n")
        with pytest.raises(DomainError, match="negative size"):
            reader(path)


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
