"""Round trips through the plain-text file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsyn import DomainError, FirSystem, InfoStructure, RelsynError, ring_plant
from relsyn import fileio

#: The five readers, each called with a path only.
READERS = {
    "matrix": fileio.read_matrix,
    "fir": fileio.read_fir,
    "structure": fileio.read_structure,
    "plant": fileio.read_plant,
    "bundle": lambda path: fileio.read_bundle(path, ("ring", "gamma")),
}


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
        fileio.write_fir(path, FirSystem(np.zeros((6, 2, 3))))
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
    KEYS = ("ring", "gamma", "horizon_q")

    def test_parse_and_paths(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("# a comment\nring = 4\ngamma = 0.3\nhorizon_q = 8\n")
        parsed = fileio.read_bundle(bundle, self.KEYS)
        assert parsed["ring"] == "4"
        assert parsed["gamma"] == "0.3"
        assert parsed["_dir"] == str(tmp_path)

    def test_malformed_line_rejected(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("just words\n")
        with pytest.raises(DomainError):
            fileio.read_bundle(bundle, self.KEYS)

    def test_unknown_key_named_with_its_line(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("ring = 4\ngama = 0.3\n")
        with pytest.raises(DomainError) as err:
            fileio.read_bundle(bundle, self.KEYS)
        assert str(err.value) == (
            f"{bundle}:2: unknown key 'gama', expected one of ring, gamma, horizon_q"
        )


class TestRepeatedNames:
    """A name given twice is an error naming the file, its second line
    and the name, never a silent overwrite."""

    def test_repeated_bundle_key(self, tmp_path):
        bundle = tmp_path / "prob.bundle"
        bundle.write_text("ring = 4\ngamma = 0.2\n# later\ngamma = 0.4\n")
        with pytest.raises(DomainError) as err:
            fileio.read_bundle(bundle, TestBundleFormat.KEYS)
        assert str(err.value) == f"{bundle}:4: repeated key 'gamma'"

    def test_repeated_plant_block(self, tmp_path):
        path = tmp_path / "p.plant"
        path.write_text("A\n1 1\n0.5\nB1\n1 1\n1\nA\n1 1\n0.7\n")
        with pytest.raises(DomainError) as err:
            fileio.read_plant(path)
        assert str(err.value) == f"{path}:7: repeated block 'A'"


class TestUnreadableText:
    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
    def test_non_utf8_file_is_a_typed_error(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 2\n1 0\n0 \xff\n")
        with pytest.raises(DomainError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            reader(path)


@pytest.fixture(scope="class")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


class TestFuzz:
    """Random token strings, drawn with a byte that is not UTF-8, end in
    a value or a RelsynError, never in another exception.  Each example
    goes through all five readers, so that hypothesis's per-example cost
    is paid once."""

    TOKENS = "0 1 2 3 -1 0.5 -2.5 1e400 inf -inf nan x A B1 B2 C1 D12 C2 ring gamma = #".split()
    PIECES = [tok.encode() for tok in TOKENS] + [b"\xff", b"\n", b"\r\n", b""]

    @settings(max_examples=200, deadline=None, database=None)
    @given(pieces=st.lists(st.sampled_from(PIECES), max_size=24))
    def test_only_relsyn_errors_escape(self, fuzz_path, pieces):
        fuzz_path.write_bytes(b" ".join(pieces))
        for reader in READERS.values():
            try:
                reader(fuzz_path)
            except RelsynError:
                pass


class TestWriters:
    @pytest.mark.parametrize(
        "writer, value",
        [
            (fileio.write_matrix, np.eye(2)),
            (fileio.write_fir, FirSystem(np.zeros((1, 1, 1)))),
            (fileio.write_structure, InfoStructure.unrestricted(1, 1)),
            (fileio.write_plant, ring_plant(3, 0.5)),
        ],
    )
    def test_unwritable_path_is_a_typed_error(self, tmp_path, writer, value):
        with pytest.raises(DomainError, match=re.escape(f"cannot write {tmp_path}:")):
            writer(tmp_path, value)
