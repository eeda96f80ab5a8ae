"""CLI outputs pinned byte for byte by their SHA-256 digests.

The digests were taken before the step path moved to cached x-only source
arrays and a direct LAPACK ``getrs`` call, and that change left every byte
as it was.  They cover the two `convergence` ladders of the benchmark's
``march`` workload (the finest order6 rung left out for time) and `solve`
at M = 384, N = 16 for the three schemes.  A change that moves one bit of
a solution, an error or a formatted figure fails here; one that is meant
to do so records the old and new values and replaces the digests.  The
figures come from IEEE double arithmetic through NumPy and LAPACK, so
another BLAS/LAPACK build can round differently.
"""

import hashlib

import pytest

from rieszkit.cli import main

CASES = {
    "convergence-order6": (
        "convergence",
        "scheme = order6\nproblem = example3\nalpha = 0.37\n"
        "ladder = 8:8, 16:64, 32:512\n",
        {"convergence.csv": "844fd1c5c7fe5ab13d9af5ae740bf0a6739a82bbd1acd06bd846bbfc7348349f",
         "convergence.txt": "6113684a496a9433f983e4933f612daabc546b3b273dc41863a1084676a62c9f",
         "manifest.txt": "8b1d6314861951701e85b402017ffe7a189f6e271a3d1e887add082d12459f4f"}),
    "convergence-order4": (
        "convergence",
        "scheme = order4\nproblem = example2\nalpha = 0.37\n"
        "ladder = 4:4, 8:16, 16:64, 32:256\n",
        {"convergence.csv": "aff09cfb4f22afa48871e879b2abac05a7bf1236dc73e40cddeaeed222e2b825",
         "convergence.txt": "abe04a6c84c78de24dd459b1abaeceb46f00e8da677152f75df883da9460ffc9",
         "manifest.txt": "f583590189e9c46e64e63ef8d09f50595f7aeac3571b7cf3eaab2ce5908cca5f"}),
    "solve-order6": (
        "solve",
        "scheme = order6\nproblem = example3\nalpha = 0.37\nM = 384\nN = 16\n",
        {"solve.csv": "af43eda66be0b2d706bb02a79d16aa5b0ac9ff839f4792b5423802c56e1bd3ad",
         "solve.txt": "9a9b837e4766fb038e9855632ff6811d4f68ab05bf2fe5e2081669b271b6b52e",
         "manifest.txt": "927cad3c3085e06b123e379820961e532f82125ee45baf7ce290f8d7d74998e3"}),
    "solve-order4": (
        "solve",
        "scheme = order4\nproblem = example2\nalpha = 0.37\nM = 384\nN = 16\n",
        {"solve.csv": "341facab0f3da3c9c7bc92cbf2d68697b38d8d54da96bfdcd9297943c212ad9c",
         "solve.txt": "3071a98fa1fef15c443851a2a4c120ec2f1aad6b75bb4a69ab402b222bd11fa5",
         "manifest.txt": "0f7f6186a66520f85112f0c5a20ad000ca2b08723c16301ee0ebe47cb32cfc0c"}),
    "solve-order2": (
        "solve",
        "scheme = order2\nproblem = example2\nalpha = 0.37\nM = 384\nN = 16\n",
        {"solve.csv": "ad95de1d387fcc2d82ece0fab44e1c9a4cd504e500bc3c7578675ea112550d4c",
         "solve.txt": "2f083ee2955cb00e43c02a238f011aaf66954fda987783129b966651fea9eb8d",
         "manifest.txt": "335b4a3d6809b31670d039002c0ac13bed2f4cce1c057f2ad755c247a6c2ce02"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(tmp_path, name):
    command, keys, digests = CASES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{command}]\n{keys}")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in digests}
    assert got == digests
