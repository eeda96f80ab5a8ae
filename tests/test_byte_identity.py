"""CLI outputs pinned byte for byte by their SHA-256 digests.

The first five digests were taken before the step path moved to cached
x-only source arrays and a direct LAPACK ``getrs`` call, and that change
left every byte as it was.  They cover the two `convergence` ladders of
the benchmark's ``march`` workload (the finest order6 rung left out for
time) and `solve` at M = 384, N = 16 for the three schemes.  The others
pin the remaining subcommands (`coeffs`, `symbol`, `bounds`,
`monotonicity`, `riesz`, `stability`) at sizes like those of the
benchmark's ``sweeps`` workload; they were taken before the CLI tables
were formatted by column and written in one pass, which left every byte
as it was.  The `second-shifted-pointwise` digest runs the exact
nested-sum weights at orders 1.37 (non-dyadic) and 1.5 (dyadic); it was
taken before those sums moved to Horner's rule.  The
`riesz-p4-max-interior` digest covers the interior-maximum metric of the
operator study; it was taken before `riesz_apply` moved from grid wrapper
types to plain arrays.  The `stability-order6-consistent-odd-grid` digest
runs a theta grid that holds theta = 0 exactly, with unstable cells
(d2 = 0.01, alpha = 0.95); it was taken before one scan served every
alpha of a run.  A change that moves one bit of a solution, an
error or a formatted figure fails here; one that is meant to do so
records the old and new values and replaces the digests.
The figures come from IEEE double arithmetic through NumPy and LAPACK, so
another BLAS/LAPACK build can round differently."""

import hashlib

import pytest

from rieszkit.cli import _COMMANDS, main

_STEPS = "0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1"

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
    "coeffs-p6": (
        "coeffs",
        "p = 6\nalpha = 0.37, 1.5\nlength = 200\n",
        {"coeffs.csv": "ff12e25b07009d85175faaf890c0286b0d2f02bc9ad44c5a475ff1e4c7f90e95",
         "coeffs.txt": "edf50a5cbb9dcbdc36b3803de3f748772ba45657940432c78b15eba3fc83b151",
         "manifest.txt": "af3734082aaef90fe5c2af9ed8b1d042b3227acacff65e2a7af856c76abb3d4a"}),
    "symbol-p6": (
        "symbol",
        "p = 6\nalpha = 0.37, 0.81, 1.5\ntheta_grid = 4096\n",
        {"symbol.csv": "fa0d90dd3109c8a7faf78c56e5369a48e33bfb333752a5c884b86b9dda1f0c7c",
         "symbol.txt": "1c5d99d4ed44ad9438d1fb330fdd7096943afd89dfc1d7c991e7e1fc9aeb9119",
         "manifest.txt": "a667fc2da19bfa27fd0fc4a4b65d1684687c62af484acfb4e751ad00af3961bb"}),
    "bounds-first-tail": (
        "bounds",
        "family = first-tail\nalpha = 0.37, 0.81\nell_min = 3\nell_max = 700\n",
        {"bounds.csv": "5a70bbdc330ce4c1a52fd63c43ff84fef996485fef9d087ebb258d69f1ee35ac",
         "bounds.txt": "9a58a39568e854d80f3433bd9a3387383b8f91dcbcaf067f62be3b807f62545f",
         "manifest.txt": "ef65f3580f418082a7f900cb54627cd128f5064eb11649c99a3ddf5ef77163ab"}),
    "bounds-second-pointwise": (
        "bounds",
        "family = second-pointwise\nalpha = 0.37, 0.5\nell_min = 4\nell_max = 60\n",
        {"bounds.csv": "18245dfc86548f6ff0286998456b41e87a1e143db188b06956454b38a6d86f52",
         "bounds.txt": "4e4a302cd2f6c5bbb88d0f53944cfea834af34a8385d900cb3a014b855a77f65",
         "manifest.txt": "f0dac7e6259c4be524c26fc056657fbbabb5d1c5da6c6490fbb5dc387ea4be69"}),
    "bounds-second-shifted-pointwise": (
        "bounds",
        "family = second-shifted-pointwise\nalpha = 0.37, 0.5\nell_min = 4\nell_max = 100\n",
        {"bounds.csv": "1e0a6fa5d539c80d9f347ce81ff80e1d7591838030c985b7feafc1bd7513d59a",
         "bounds.txt": "e168d803a56178abf8e37865da9514ab27c99cd65a6c2a21bb9433cba002cc6a",
         "manifest.txt": "e954dc62db2036ed0dead39255422670054e6a4e6df34036b736490876105f0d"}),
    "monotonicity-p2": (
        "monotonicity",
        "p = 2\nalpha = 0.37, 0.81, 1.3, 1.7\nlength = 500\n",
        {"monotonicity.csv": "925ce0ad1e5f73774e97accb10f74ffbd86562756becdbb0f7fec85812643b17",
         "monotonicity.txt": "cabb441998df7441cbab587737239fad40e652cb8ed08c56fe571251e76e821b",
         "manifest.txt": "509cf44dd942c8545ca751b23149098554a3b3d15c8320f258935c8d339e5c56"}),
    "riesz-p4": (
        "riesz",
        "p = 4\nalpha = 0.37, 0.81\nh = 1/20, 1/40, 1/80, 1/160, 1/320\n",
        {"riesz.csv": "4910a78f499c48b384591c4b873abf60a0a92ad744fd5ba648915cd693f44f87",
         "riesz.txt": "6663aba02c4440abece05aab1da3e2ec96d068f98753327a026a6336d1cc6388",
         "manifest.txt": "b9c77061aaa27119ee425adf16b466685fdc7c50de9c783004ee47ba4f6dc49a"}),
    "riesz-p4-max-interior": (
        "riesz",
        "p = 4\nalpha = 0.37, 0.81\nh = 1/20, 1/40, 1/80, 1/160, 1/320\n"
        "metric = max-interior\n",
        {"riesz.csv": "981dba3099477b885e4963bd74c4a18d1f5e43d83cdd8f91866d8ebd03ee2230",
         "riesz.txt": "4cff40de52fcdc7f49ef3c0932ee9528f2ba6070e0264f596a1e7d6fbbf31207",
         "manifest.txt": "7a43172a2ca7e1f68fbf94bae95fc465cda97a2b7c6a1bf78e68f45ed04844d2"}),
    "stability-order6": (
        "stability",
        f"scheme = order6\nalpha = 0.37, 0.81\nh = {_STEPS}\ntau = {_STEPS}\n"
        "theta_grid = 4096\n",
        {"stability.csv": "7dbccc64d8d0e6575febb4ee24bb4669575bfb6f76de3349b9d7d89238697063",
         "stability.txt": "d35adf4f1084a735b4827e3168ca00d1a5a2bfe6dcd330a82263a60192435180",
         "manifest.txt": "116df6b0e5f27e5002c90f30d6008c6ba7a34ef073e3b8bd8e936aa2bdc06581"}),
    "stability-order2": (
        "stability",
        f"scheme = order2\nalpha = 0.37, 0.81\nh = {_STEPS}\ntau = {_STEPS}\n"
        "d1 = 0.5\nd_alpha = 2\ntheta_grid = 4096\n",
        {"stability.csv": "7db8f5acba6262ffb6bdebcaa1a1358ff3d3bd62b9c8e9ad6569b0e6085ec0a5",
         "stability.txt": "0ce4a2c65f2e527b0ae2985be7d61b4708ff7c366f666405a8dde63336f9d611",
         "manifest.txt": "adc333f9bcd5cacccb9abe34b51f9dacf82ffa09b2b55c21b60f7e86c7227e1a"}),
    "stability-order6-consistent-odd-grid": (
        "stability",
        f"scheme = order6-consistent\nalpha = 0.37, 0.81, 0.95\nh = {_STEPS}\n"
        f"tau = {_STEPS}\nd1 = 2\nd2 = 0.01\ntheta_grid = 4097\n",
        {"stability.csv": "da1cfd25e8e4a469dafd10df8d04e4c15296387f1b64fa15752388bf558271fe",
         "stability.txt": "d6589130be7294b852329a29d001f1e870ad82c34221ae66d522e80f9d51b413",
         "manifest.txt": "2b39e14ad52158a2344bc951bfdc307ffd9b5af454d85eea194a504034608615"}),
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


def test_every_subcommand_has_a_digest():
    assert {command for command, _, _ in CASES.values()} == set(_COMMANDS)
