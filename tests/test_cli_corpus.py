"""Byte-for-byte CLI output: sha256 digests of stdout for a fixed corpus,
and of the --output file where that is where the result goes.

The digests were recorded before the search oracle was folded into
`jchar` and `analyze` moved to one evaluation, and the two
`search --n 3 --p 3` ones, whose candidates take both scoring routes,
before those routes were merged into one scorer.  The two
`search --n 4 --p 3` ones were recorded with the per-candidate search,
before it scored one representative per symmetry orbit (about five
minutes each then).  The `matrices --p 4` and `--p 5` ones, which no
frozen data covers, were recorded before the equation moves became
array operations on the digit grid.  The two `--max-length 8` ones, a
clip that keeps lengths 6 and 8, were recorded while the closed form
still built its full spectrum and then copied the clipped part.  The
`matrices --p 4` and `--p 5` text ones and the `extend --output` file
one were recorded while the CLI still rendered JSON through
`json.dumps(..., indent=2)`, before its own writer replaced it.  The
two `matrices --p 6 --output` ones (79 MB of JSON, hashed a chunk at a
time) were recorded while equation rows were still tuples of Python
ints, before they became uint8 arrays rendered as bytes.  The three
`analyze` ones of a design file (`{design}`, the `construct` output
of design_256x14, and `{design_crlf}`, the same text with CRLF line
ends) and the `construct --output` file one were recorded while design
text was still written and read one cell at a time.  The `{gen22}` one
(design_256x14's generator with four more rows: p = 3, n = 8, 65,536
runs by 22 factors, with rho = 1 words) was recorded while the WHT
buffer's type still came from the total run count (int32 there).  Any
refactor that keeps the outputs keeps them.
To re-record after an intended output change, run
`python tests/test_cli_corpus.py` and paste what it prints.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qcode import GeneratorSpec, build_design, design_to_text, load_examples
from qcode.cli import main

CORPUS = (
    *(("matrices", "--p", p, "--format", fmt)
      for p in (1, 2, 3) for fmt in ("json", "text")),
    *(("matrices", "--p", p, "--format", fmt)
      for p in (4, 5) for fmt in ("json", "text")),
    *(("analyze", "--input", "{gen}", "--method", m)
      for m in ("theory", "bruteforce", "both")),
    ("analyze", "--input", "{gen}", "--method", "theory", "--max-length", 8,
     "--format", "text"),
    ("analyze", "--input", "{gen}", "--method", "both", "--max-length", 8),
    ("analyze", "--input", "{gen22}", "--method", "both"),
    ("construct", "--input", "{gen}"),
    *(("analyze", "--input", "{design}", "--method", "bruteforce",
       "--format", fmt) for fmt in ("json", "text")),
    ("analyze", "--input", "{design_crlf}", "--method", "bruteforce"),
    *(("search", "--n", n, "--p", p, "--criterion", c, "--top", 3)
      for n, p in ((2, 3), (3, 2), (3, 3), (4, 3))
      for c in ("max_resolution", "gma")),
    ("verify",),
    ("extend", "--input", "{freq}", "--t", 1),
)

#: invocations whose --output file is hashed, not their stdout
FILE_CORPUS = (
    ("extend", "--input", "{freq}", "--t", 1, "--output", "{out}"),
    ("construct", "--input", "{gen}", "--output", "{out}"),
    *(("matrices", "--p", 6, "--format", fmt, "--output", "{out}")
      for fmt in ("json", "text")),
)

DIGESTS = {
    "matrices --p 1 --format json":
        "5ed98a06febc1c4109043fbf7f1886a117ef7160fbbdf1a8882c7204c0864d17",
    "matrices --p 1 --format text":
        "11490b70cbbc5132155e7fbca9d57d1bf24f6ca0e6d791c8f5eb1dda0ddebbc4",
    "matrices --p 2 --format json":
        "bc70758ec7b9177d070d54dcbd587d9291542e585e11b21a019d8991e0e31cef",
    "matrices --p 2 --format text":
        "37f607e234286306d3ca582c13f64b3c9bfcbfe4bb1fb291268b4408989b6284",
    "matrices --p 3 --format json":
        "13ba2ef53f05549f6bf903cbbcb1364d8345584d4fbbd6b556d3aae0c1cc57cb",
    "matrices --p 3 --format text":
        "00c8d7f38c227ce9657f28839eac5c0c832d1106af9792bd8daa4ca7d6785cff",
    "matrices --p 4 --format json":
        "be670ce9fdee32ef13b6ce8ae8dc913050f27e2376ceacab2ab8f0a1d0dd8234",
    "matrices --p 4 --format text":
        "0aea1299a9345df6512a9e0ea9b17b7d17f1d773503a516870ad9e3058fa168d",
    "matrices --p 5 --format json":
        "2cd33211fb14565b420ed41c642e0d4a2a58d52f1e64f328a5239ea4a844d61a",
    "matrices --p 5 --format text":
        "dd52e0af5f7aa1a62e415eb59098152e8c71140180bc0b5ee1967b2d06b4f763",
    "analyze --input {gen} --method theory":
        "25955ea99e43e281cee1ae729c885afdc04e0d8f1fe2fa728f51479fedb2324b",
    "analyze --input {gen} --method bruteforce":
        "bc5c65e474577baafa99d9892d5eab3e21b90240b34b4f49e1d9e92338fb20aa",
    "analyze --input {gen} --method both":
        "19986852c2cb482efc6ac9dc7cc898d12e49d9c74427d0ffdae587edf05335e1",
    "analyze --input {gen} --method theory --max-length 8 --format text":
        "0a4757458cda8e5375b1dbf35d0cd54ed750dc8a70a7847ac36baeb3ba0c33fb",
    "analyze --input {gen} --method both --max-length 8":
        "102276e771ab9191a6d92b9b1729aa3ebd8d57eb0c7e8679738d06b9b744550e",
    "analyze --input {gen22} --method both":
        "b1b68814c04a8314c461a3ba2db357acc2221a92dbec3815c7b363458c67c2ac",
    "construct --input {gen}":
        "bdaeee7413e878b3afaf7a6fe48a4d46afe65781e161106449269b7718195179",
    "analyze --input {design} --method bruteforce --format json":
        "bc5c65e474577baafa99d9892d5eab3e21b90240b34b4f49e1d9e92338fb20aa",
    "analyze --input {design} --method bruteforce --format text":
        "7e47b1c3a035fbfd888de68291c837516c58f83c8483c0332eb5125fc709ad21",
    "analyze --input {design_crlf} --method bruteforce":
        "bc5c65e474577baafa99d9892d5eab3e21b90240b34b4f49e1d9e92338fb20aa",
    "search --n 2 --p 3 --criterion max_resolution --top 3":
        "3274bf29c9d5382b33bd58e864339fcc7972c4653417ddef43340b859051fd6f",
    "search --n 2 --p 3 --criterion gma --top 3":
        "7e22c6318b0a86d7130ddc338c0ef507d87159b596d6f23703900dda44994462",
    "search --n 3 --p 2 --criterion max_resolution --top 3":
        "ea648bf01109a645d86d9c9bd4539e0ae7727bbbbacbc2d0e386e171ae5eb348",
    "search --n 3 --p 2 --criterion gma --top 3":
        "ea648bf01109a645d86d9c9bd4539e0ae7727bbbbacbc2d0e386e171ae5eb348",
    "search --n 3 --p 3 --criterion max_resolution --top 3":
        "30dc3ca2f3b24becd0521631439a1b2de206c5e19d80672319464c2e4eb85ac5",
    "search --n 3 --p 3 --criterion gma --top 3":
        "48426862201efd80151504dc0bd08da34180b64103c0b4404aa8ef4a1967ea5c",
    "search --n 4 --p 3 --criterion max_resolution --top 3":
        "0c664a60ce3ecda19930b773f630242e5f64c10b678f21e56d767b1b11fe8ea4",
    "search --n 4 --p 3 --criterion gma --top 3":
        "a2f2586f65a7ed01bc382b729838a5bdb8fae30ba2585c4e128712f365c3d8b1",
    "verify":
        "14cfc77d27ba3afbadc35fb6fa614f522c7806558e7b068ee612f8caa14ab18c",
    "extend --input {freq} --t 1":
        "322af31c430d9bbbf8e64113d55d25a812c45beb72cfc778a6f36918c2dd5f11",
}

FILE_DIGESTS = {
    "extend --input {freq} --t 1 --output {out}":
        "9c88aaaa2870a7f74e5ce49694b9429ea30e9667e46ad8cc5fc29cc60b611ea5",
    "construct --input {gen} --output {out}":
        "bdaeee7413e878b3afaf7a6fe48a4d46afe65781e161106449269b7718195179",
    "matrices --p 6 --format json --output {out}":
        "c90189e2790a58eecdb1b62e6910c0f34d7cf0bd4f901177e163a8dc675d8d8c",
    "matrices --p 6 --format text --output {out}":
        "853f818595a94b5be71451f490beb215a78c303f061b432670ac8f1b072cacb2",
}


def write_inputs(folder: Path) -> dict:
    d4 = load_examples()["design_256x14"]
    gen, freq = folder / "gen.json", folder / "freq.json"
    gen.write_text(json.dumps({"n": len(d4["V"]), "p": 3, "V": d4["V"]}))
    gen22 = folder / "gen22.json"
    v22 = d4["V"] + [[2, 3, 1], [3, 1, 2], [3, 2, 3], [1, 1, 3]]
    gen22.write_text(json.dumps({"n": len(v22), "p": 3, "V": v22}))
    counts = [0] * 64
    for c in d4["F_one_cells"]:
        counts[c] = 1
    freq.write_text(json.dumps(counts))
    design, crlf = folder / "design.txt", folder / "design_crlf.txt"
    g = GeneratorSpec(len(d4["V"]), 3, d4["V"])
    text = design_to_text(build_design(g))
    design.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    return {"gen": str(gen), "gen22": str(gen22), "freq": str(freq),
            "design": str(design),
            "design_crlf": str(crlf), "out": str(folder / "out")}


def digest(argv, paths: dict) -> tuple[int, str]:
    args = [str(a).format(**paths) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(args)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def file_digest(argv, paths: dict) -> tuple[int, str]:
    """Hash the --output file a chunk at a time, then delete it (pytest
    keeps recent temporary folders, and `matrices --p 6` writes 79 MB)."""
    code, _ = digest(argv, paths)
    out = Path(paths["out"])
    sha = hashlib.sha256()
    with out.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    out.unlink()
    return code, sha.hexdigest()


def label(argv) -> str:
    return " ".join(str(a) for a in argv)


@pytest.mark.parametrize("argv", CORPUS, ids=label)
def test_cli_stdout_digest(tmp_path, argv):
    code, got = digest(argv, write_inputs(tmp_path))
    assert code == 0
    assert got == DIGESTS[label(argv)]


@pytest.mark.parametrize("argv", FILE_CORPUS, ids=label)
def test_cli_output_file_digest(tmp_path, argv):
    code, got = file_digest(argv, write_inputs(tmp_path))
    assert code == 0
    assert got == FILE_DIGESTS[label(argv)]


if __name__ == "__main__":
    import tempfile
    for corpus, how in ((CORPUS, digest), (FILE_CORPUS, file_digest)):
        for argv in corpus:
            with tempfile.TemporaryDirectory() as tmp:
                code, got = how(argv, write_inputs(Path(tmp)))
            assert code == 0, (argv, code)
            sys.stdout.write(f'    "{label(argv)}":\n        "{got}",\n')
