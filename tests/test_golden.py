"""Byte-identity of every scheme's export against recorded SHA-256 digests.

The digests were captured from result_text(run_experiment(cfg), fmt) for the
paper profile of each scheme, in CSV and JSON, with noise off and with
sigma_rel = 0.01, seed = 5, under numpy 2.4.6 (Python 3.11.7). The
magnitude-noise digests (kind="magnitude", same sigma and seed) and the
``idt response`` stdout digests were captured the same way. A refactor of
the config, runners, noise or export must reproduce them exactly; the JSON
digests also pin ExperimentConfig.to_dict() through the config echo. Another
numpy version may change the Philox normal draws or float formatting of the
seeded rows, so recapture only after checking the difference is numpy's.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from acoustic_eit.cli import main
from acoustic_eit.experiments import NoiseParams, paper_profile, result_text, run_experiment

GOLDEN = {
    ("control-sweep", False, "csv"): "218e34901b436b424afbd6e06e2d028db95abdbe13bbe507d4c63a87f6da7549",
    ("control-sweep", False, "json"): "0f045f7f67607d3f8a4502a50b96d2af065130d8aefe28896bd97743a08d12b8",
    ("control-sweep", True, "csv"): "fb2ed3ac34e3df219ffe147782d6e979249b0b7662a17cde903f90e4a02a9bcf",
    ("control-sweep", True, "json"): "f960b30802e93a0cacdbc33785f365821af36d96c06f38b6e3a32a81d54464bb",
    ("power-sweep", False, "csv"): "ecc3e11efba012c5822bcbaf58ad8a6b87af17c246b84bd6bd59ef7db0ff3cba",
    ("power-sweep", False, "json"): "1cb143824ab6c1631d496c397a828a21e9cb5f85b35da931c1ff0d1a98098249",
    ("power-sweep", True, "csv"): "3ad8919decf077d15707a4788babf93ff640560751f8bed656a2a22369872c2a",
    ("power-sweep", True, "json"): "c000e8a4c3f539b7f6c9b355309f43e3699bc083bdaca14d1d4d66c3546c22b0",
    ("flux-sweep", False, "csv"): "f052826c46e176dde581de0f925206774707a3ebf80396562c79df0dd83a8485",
    ("flux-sweep", False, "json"): "2c8d936c4aa813c55188108b2c96e927acf838febe09bbb6dd8d81fd117c4788",
    ("flux-sweep", True, "csv"): "2bf1ff1f4f47a38c71c56b38170ffb544462de87bae4c204147f40374aea8670",
    ("flux-sweep", True, "json"): "54e0d60013ff447e588ef6a3da163c733aa36fc9397417d9a23282963ae509b4",
    ("linewidth-pipeline", False, "csv"): "5aa78f2a59150d537efc031b11d3286f27f9bd3ac7659afe16d70464c21ed665",
    ("linewidth-pipeline", False, "json"): "98f1ba908f753c5072aaa2e7e2719300a0f2b38d1ec05ec351aafe2a10702a16",
    ("linewidth-pipeline", True, "csv"): "d03817d3fef5f9862a1c72eebca4e2f99e548f2e16be13e37e55a204adab5d3d",
    ("linewidth-pipeline", True, "json"): "a99c66a5e8bd9fc07e7b58c9824b722b9c6b9d3f4ee8ad15abec8b2b144200f2",
}


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep", "flux-sweep", "linewidth-pipeline"])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "seeded"])
def test_export_bytes_match_golden_digests(scheme, noisy):
    cfg = paper_profile(scheme)
    if noisy:
        cfg = replace(cfg, noise=NoiseParams(sigma_rel=0.01, seed=5))
    result = run_experiment(cfg)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(result_text(result, fmt).encode("utf-8")).hexdigest()
        assert digest == GOLDEN[(scheme, noisy, fmt)], f"{scheme} {fmt} export bytes changed"


MAGNITUDE_GOLDEN = {
    ("control-sweep", "csv"): "7acf291f89b95516333d14ee05dee955c37af7316e1d5ea0700005e38104cac3",
    ("control-sweep", "json"): "d67792f2df300175c2f80dc56db8315ebfc0aceaba0089b070f5dc8f7c1455fd",
    ("power-sweep", "csv"): "2da4a14a6bb186f3812368c4909c05fa535d6e18b3454eff81677f8e19877b32",
    ("power-sweep", "json"): "4dff27729ceed9611284d9ecbc9515107d98edb15bfa3266d765f2538b0f26ce",
    ("flux-sweep", "csv"): "871fc3ed1c56ced0527bf7a80ea0e8f4bb6aca7b652e0f8454fd07aefaf300a0",
    ("flux-sweep", "json"): "b16e1dd5ca6d905e4854be8b750af1b7804af2b58c97d82cb3bf709bc3313135",
}

IDT_GOLDEN = {
    "csv": "e6145fc8ffdaf96918cfef3b89f997dd1d0f0959c78ff8b31d95f910e80b7238",
    "json": "4ba554027ea65b9d055dd258d4a21b4745e1eb5db3f2f9429de4002bd3752244",
}


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep", "flux-sweep"])
def test_magnitude_noise_export_bytes_match_golden_digests(scheme):
    cfg = replace(paper_profile(scheme), noise=NoiseParams(sigma_rel=0.01, seed=5, kind="magnitude"))
    result = run_experiment(cfg)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(result_text(result, fmt).encode("utf-8")).hexdigest()
        assert digest == MAGNITUDE_GOLDEN[(scheme, fmt)], f"{scheme} magnitude-noise {fmt} export bytes changed"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_idt_response_bytes_match_golden_digests(capsys, fmt):
    code = main(["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--format", fmt])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == IDT_GOLDEN[fmt], f"idt response {fmt} bytes changed"
